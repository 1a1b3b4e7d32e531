(** The [batsched serve] wire protocol: newline-delimited JSON.

    One request per line, one response line per request, in request
    order.  A request is a JSON object with an ["op"] field selecting
    the query and an optional ["id"] (any JSON value) that the response
    echoes verbatim, so clients can pipeline.  Robustness flags ride on
    every request: ["deadline_ms"] (wall clock) and ["max_segments"]
    (deterministic work units) map onto a fresh {!Guard.Budget} for the
    request, and a request that trips it is answered with its anytime
    result tagged [degraded] instead of an error.

    Responses are single-line JSON objects:

    - success: [{"id":…,"ok":true,"degraded":false,"result":{…}}]
      (plus ["degraded_reason"] when [degraded] is [true]);
    - failure: [{"id":…,"ok":false,"error":{…},"retry_after_ms":N?}]
      where the error object is a rendered {!Guard.Error.t} — the same
      taxonomy the CLI prints (doc/ROBUSTNESS.md).

    Parsing is total: any malformed frame comes back as a structured
    {!Guard.Error.t}, never an exception — the server's fuzz suite
    ([test/test_serve.ml]) holds it to that. *)

type battery = B1 | B2

val battery_label : battery -> string
(** ["b1"] / ["b2"]. *)

type load_ref =
  | Named of Loads.Testloads.name  (** a paper test load at its default horizon *)
  | Spec of Loads.Epoch.t * string
      (** a spec-language load: the parsed epochs, which cache keys
          encode exactly, and the client's spec text, which error
          messages quote *)

type target = { load : load_ref; battery : battery; n_batteries : int }

type mc_params = {
  mc_seed : int;
  mc_samples : int;
  mc_slots : int;
  mc_deadline_min : float option;
}

type ens_params = {
  ens_seed : int;
  ens_loads : int;
  ens_jobs_per_load : int;
  ens_include_optimal : bool;
}

type query =
  | Schedule of target  (** the optimal schedule (exact search) *)
  | Compare of target  (** every policy side by side *)
  | Montecarlo of target * mc_params  (** fleet estimation (onoff model) *)
  | Ensemble of target * ens_params  (** random-load distributions *)
  | Stats  (** server metrics; never queued, never cached *)

type request = {
  id : Obs.Json.t;  (** echoed verbatim; [Null] when absent *)
  query : query;
  deadline_ms : int option;
  max_segments : int option;
}

val parse_request : string -> (request, Obs.Json.t * Guard.Error.t) result
(** Parse one frame (without its newline).  On failure the returned
    [Json.t] is the frame's ["id"] if one could be extracted ([Null]
    otherwise), so the error response can still be correlated. *)

val cache_key : request -> string option
(** Canonical cache key (an MD5 hex of the query's canonical form), or
    [None] for queries that must not be cached ([Stats]).  A spec load
    enters the key as its parsed epochs, marshalled exactly, so two
    specs share a key only when they are the same load.  Budget fields
    are excluded: a cached entry is always the {e exact} answer, so it
    may serve a budgeted request too. *)

val max_search_positions : int
(** The positions cap of every [schedule] and [compare] request's exact
    search: 500,000 explored positions, about 3.6 times the largest
    Table 5 search (ILl 250 on 2xB1, 136,932 positions in about 17 MB
    of heap).  A search that reaches it answers with its anytime
    result, tagged [degraded] with reason ["positions"]. *)

val budget_of_request : request -> Guard.Budget.t option
(** A fresh budget per request from [deadline_ms] / [max_segments],
    plus {!max_search_positions} for [schedule] and [compare];
    [None] for a [montecarlo] or [ensemble] request that carries
    neither field, and for [stats]. *)

val ok_response : id:Obs.Json.t -> ?degraded:string -> string -> string
(** [ok_response ~id result_json]: the success line (no trailing
    newline).  [result_json] is the serialized ["result"] object —
    kept as a string so cached responses are byte-identical to cold
    ones.  [degraded] sets the flag and the reason. *)

val error_response :
  id:Obs.Json.t -> ?retry_after_ms:int -> Guard.Error.t -> string
(** The failure line (no trailing newline). *)

val parse_response :
  string -> (Obs.Json.t, Guard.Error.t) result
(** Client side: one response line as JSON (any valid object). *)
