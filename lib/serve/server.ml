(* The batsched daemon: a Unix.select event loop, optionally backed by
   a pool of worker domains.

   One domain — the event loop — owns every connection, all conn
   mutation, the listen socket and the drain ledger.  The admission
   queue and the caches are thread-safe.  With [config.domains = 1]
   the loop also computes: exactly one queued request per iteration,
   so accept/read/flush latency stays bounded by one service time.
   With [domains > 1] the loop computes nothing — each admitted
   request becomes one [Exec.Pool.submit] ticket; the ticket pops the
   admission queue (the pop is the race arbiter: an item lands in
   exactly one ticket or in one drain-deadline shed), computes the
   answer with the shared caches warm, and hands the finished line
   back over a mutex-guarded completion queue plus a self-pipe byte
   that wakes the select.  The loop delivers completions through a
   per-connection sequence buffer, so responses leave each connection
   in admission order no matter which worker finished first.

   Determinism across [domains]: workers run handlers without the
   batch compute pool (its combinators are single-submitter) and share
   only exact values (Sched.Memo entries, cached responses), so every
   non-degraded answer is byte-identical at any domain count —
   asserted by the concurrent replay test and the CI domains-diff
   step.  Degraded and budget-tripped answers may legitimately differ
   with memo warmth; they are never cached.

   The loop itself never blocks on a client: connection fds are
   nonblocking, reads and writes stop at EAGAIN.

   Robustness invariants (doc/ROBUSTNESS.md, fuzzed in
   test/test_serve.ml):
   - no client byte sequence reaches an exception: frames parse totally
     (Protocol), oversized and malformed frames are answered
     structurally, partial lines just wait in the connection buffer;
   - no client behaviour grows unbounded state: frames are capped,
     per-connection pending requests are capped, the admission queue is
     capped, idle connections are reaped;
   - a vanished client is a counted event, not an error: EPIPE and
     ECONNRESET close the connection, responses to closed connections
     are dropped and counted. *)

module Json = Obs.Json
module Optimal = Sched.Optimal
module Simulator = Sched.Simulator
module Memo = Sched.Memo

(* -------------------------------------------------------------- *)
(* Metrics                                                        *)
(* -------------------------------------------------------------- *)

let c_requests = Obs.counter "serve.requests"
let c_responses = Obs.counter "serve.responses"
let c_shed = Obs.counter "serve.shed"
let c_degraded = Obs.counter "serve.degraded"
let c_deadline_trips = Obs.counter "serve.deadline_trips"
let c_malformed = Obs.counter "serve.malformed"
let c_oversized = Obs.counter "serve.oversized"
let c_idle_closed = Obs.counter "serve.idle_closed"
let c_disconnects = Obs.counter "serve.disconnects"
let c_refused_draining = Obs.counter "serve.refused_draining"
let c_dropped = Obs.counter "serve.dropped_responses"
let c_accepted = Obs.counter "serve.conns_accepted"
let c_dispatched = Obs.counter "serve.dispatched"
let c_drain_shed = Obs.counter "serve.drain_shed"
let g_conns = Obs.gauge "serve.connections"

let latency_hists =
  [
    ("schedule", Obs.histogram "serve.latency_us.schedule");
    ("compare", Obs.histogram "serve.latency_us.compare");
    ("montecarlo", Obs.histogram "serve.latency_us.montecarlo");
    ("ensemble", Obs.histogram "serve.latency_us.ensemble");
    ("stats", Obs.histogram "serve.latency_us.stats");
  ]

let kind_of_query = function
  | Protocol.Schedule _ -> "schedule"
  | Protocol.Compare _ -> "compare"
  | Protocol.Montecarlo _ -> "montecarlo"
  | Protocol.Ensemble _ -> "ensemble"
  | Protocol.Stats -> "stats"

let observe_latency kind us =
  match List.assoc_opt kind latency_hists with
  | Some h -> Obs.observe h us
  | None -> ()

(* -------------------------------------------------------------- *)
(* Configuration                                                  *)
(* -------------------------------------------------------------- *)

type config = {
  socket_path : string;
  max_conns : int;
  max_queue : int;
  degrade_watermark : int;
  degrade_horizon_k : int;
  degrade_budget : int;
  max_frame_bytes : int;
  max_pending_per_conn : int;
  max_requests_per_conn : int option;
  idle_timeout_s : float;
  drain_deadline_s : float;
  cache_path : string option;
  cache_save_every : int;
  cache_max_entries : int;
  memo_max_entries : int;
  domains : int;
  pool : Exec.Pool.t option;
}

let default_config ~socket_path =
  {
    socket_path;
    max_conns = 64;
    max_queue = 128;
    degrade_watermark = 64;
    degrade_horizon_k = 4;
    degrade_budget = 2000;
    max_frame_bytes = 65536;
    max_pending_per_conn = 16;
    max_requests_per_conn = None;
    idle_timeout_s = 30.0;
    drain_deadline_s = 10.0;
    cache_path = None;
    cache_save_every = 32;
    cache_max_entries = 65536;
    memo_max_entries = 65536;
    domains = 1;
    pool = None;
  }

let validate_config cfg =
  let bad name v = invalid_arg (Printf.sprintf "Serve.Server.run: %s = %d < 1" name v) in
  if cfg.max_conns < 1 then bad "max_conns" cfg.max_conns;
  if cfg.max_queue < 1 then bad "max_queue" cfg.max_queue;
  if cfg.degrade_horizon_k < 1 then bad "degrade_horizon_k" cfg.degrade_horizon_k;
  if cfg.degrade_budget < 1 then bad "degrade_budget" cfg.degrade_budget;
  if cfg.max_frame_bytes < 1 then bad "max_frame_bytes" cfg.max_frame_bytes;
  if cfg.max_pending_per_conn < 1 then bad "max_pending_per_conn" cfg.max_pending_per_conn;
  if cfg.cache_max_entries < 1 then bad "cache_max_entries" cfg.cache_max_entries;
  if cfg.memo_max_entries < 1 then bad "memo_max_entries" cfg.memo_max_entries;
  if cfg.domains < 1 then bad "domains" cfg.domains;
  if cfg.idle_timeout_s <= 0.0 then
    invalid_arg "Serve.Server.run: idle_timeout_s must be positive"

type outcome = { requests_served : int; aborted : bool }

(* -------------------------------------------------------------- *)
(* Connections and the loop context                               *)
(* -------------------------------------------------------------- *)

(* Connections are owned by the event loop: every field here is read
   and written by that one domain only (workers see a conn solely as an
   opaque payload inside an item, and hand it back untouched). *)
type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable rbuf : string;  (* partial frame awaiting its newline *)
  mutable discarding : bool;  (* swallowing the tail of an oversized frame *)
  outq : string Queue.t;
  mutable wcur : string;
  mutable woff : int;
  mutable last_activity_ns : int;
  mutable pending : int;  (* admitted, not yet answered *)
  mutable frames : int;  (* frames parsed over the connection lifetime *)
  mutable seq_next : int;  (* admission order: next sequence to assign *)
  mutable resp_next : int;  (* next sequence allowed onto the wire *)
  resp_buf : (int, string) Hashtbl.t;  (* finished out-of-order lines *)
  mutable close_after_flush : bool;
  mutable closed : bool;
}

type item = {
  it_req : Protocol.request;
  it_conn : conn;
  it_enq_ns : int;
  it_seq : int;  (* per-connection admission sequence *)
}

(* One finished request, computed on whichever domain, delivered by the
   event loop. *)
type completion = {
  co_it : item;
  co_line : string;
  co_service_ms : float;
  co_done_ns : int;
}

type ctx = {
  cfg : config;
  cache : Cache.t;
  memo : Memo.t;
  adm : item Admission.t;
  conns : (int, conn) Hashtbl.t;
  disc_b1 : Dkibam.Discretization.t;
  disc_b2 : Dkibam.Discretization.t;
  hpool : Exec.Pool.t option;  (* in-request compute pool (workers: none) *)
  dispatch : Exec.Pool.t option;  (* worker domains; [None] at domains = 1 *)
  comp_lock : Mutex.t;
  comp_q : completion Queue.t;
  wake_r : Unix.file_descr;  (* self-pipe: workers wake the select *)
  wake_w : Unix.file_descr;
  mutable draining : bool;
  mutable drain_started_ns : int;
  mutable served_total : int;
  mutable admitted : int;  (* event-loop ledger: items ever admitted *)
  mutable delivered : int;  (* ... and items answered, shed or dropped *)
}

let serr ?field ?value ?accepted what =
  Guard.Error.make ~subsystem:"serve" ?field ?value ?accepted what

let close_conn ctx conn reason =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove ctx.conns conn.cid;
    match reason with
    | `Idle -> Obs.incr c_idle_closed
    | `Disconnect -> Obs.incr c_disconnects
    | `Normal -> ()
  end

let has_output conn = conn.wcur <> "" || not (Queue.is_empty conn.outq)

let rec try_flush ctx conn =
  if not conn.closed then
    if conn.wcur = "" then
      match Queue.take_opt conn.outq with
      | None -> if conn.close_after_flush then close_conn ctx conn `Normal
      | Some s ->
          conn.wcur <- s;
          conn.woff <- 0;
          try_flush ctx conn
    else
      let len = String.length conn.wcur - conn.woff in
      match Unix.write_substring conn.fd conn.wcur conn.woff len with
      | 0 -> ()
      | n ->
          conn.woff <- conn.woff + n;
          if conn.woff >= String.length conn.wcur then begin
            conn.wcur <- "";
            conn.woff <- 0
          end;
          try_flush ctx conn
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn ctx conn `Disconnect

let send ctx conn line =
  if conn.closed then Obs.incr c_dropped
  else begin
    Queue.push (line ^ "\n") conn.outq;
    try_flush ctx conn
  end

(* -------------------------------------------------------------- *)
(* Request handlers                                               *)
(* -------------------------------------------------------------- *)

let disc_of ctx = function Protocol.B1 -> ctx.disc_b1 | Protocol.B2 -> ctx.disc_b2

let arrays_of_load (load : Protocol.load_ref) =
  match load with
  | Protocol.Named n -> Batsched.Experiments.arrays_of n
  | Protocol.Spec (epochs, text) -> (
      match
        Loads.Arrays.make_result ~input:text
          ~time_step:Batsched.Experiments.time_step
          ~charge_unit:Batsched.Experiments.charge_unit epochs
      with
      | Ok a -> a
      | Error e -> Guard.Error.raise_exn e)

(* Process-wide memo scope of the planner window values.  Each planner
   narrows it by its own load, battery and switch delay
   ([Optimal.planner]), so one scope serves every request: requests for
   the same (load, battery) pair share warmth across connections,
   domains and Horizon re-plans, and other pairs never see it. *)
let plan_scope ctx = Memo.scope ctx.memo ~fingerprint:"plan"

(* First trip of a request: name it for the response, count deadline
   trips separately (the headline robustness metric). *)
let note_trip trip =
  (match trip with
  | Guard.Budget.Deadline -> Obs.incr c_deadline_trips
  | _ -> ());
  Guard.Budget.trip_to_string trip

let jfloat f = Json.to_string (Json.Float f)
let jlifetime = function None -> "null" | Some m -> jfloat m

let schedule_json disc (r : Optimal.result) =
  let status, degraded =
    match r.Optimal.status with
    | Optimal.Optimal -> ("optimal", None)
    | Optimal.Budget_exhausted { trip; fallback } ->
        let fb =
          match fallback with
          | Optimal.Search_prefix -> "search-prefix"
          | Optimal.Policy_floor -> "policy-floor"
        in
        ("anytime:" ^ fb, Some (note_trip trip))
  in
  let sched =
    String.concat "," (Array.to_list (Array.map string_of_int r.Optimal.schedule))
  in
  ( Printf.sprintf
      "{\"lifetime_min\":%s,\"lifetime_steps\":%d,\"stranded_units\":%d,\"status\":%s,\"schedule\":[%s]}"
      (jfloat (Dkibam.Discretization.minutes_of_steps disc r.Optimal.lifetime_steps))
      r.Optimal.lifetime_steps r.Optimal.stranded_units
      (Json.to_string (Json.String status))
      sched,
    degraded )

(* The overload answer: no exact search at all — one receding-horizon
   simulation under a small per-decision budget.  Feasible, certified
   by the planner's lower bound, and cheap enough to serve from a deep
   queue.  Never cached. *)
let degraded_schedule cfg ~shared disc arrays ~n_batteries =
  let policy =
    Sched.Horizon.policy ~shared ~budget_segments:cfg.degrade_budget
      ~k:cfg.degrade_horizon_k ()
  in
  let out = Simulator.simulate ~n_batteries ~policy disc arrays in
  match out.Simulator.lifetime_steps with
  | None -> raise Optimal.Load_too_short
  | Some steps ->
      let sched =
        String.concat ","
          (List.map (fun (_, b) -> string_of_int b) out.Simulator.decisions)
      in
      Printf.sprintf
        "{\"lifetime_min\":%s,\"lifetime_steps\":%d,\"status\":%s,\"schedule\":[%s]}"
        (jfloat (Dkibam.Discretization.minutes_of_steps disc steps))
        steps
        (Json.to_string
           (Json.String
              (Sched.Horizon.name ~budget_segments:cfg.degrade_budget
                 ~k:cfg.degrade_horizon_k ())))
        sched

(* Each policy's lifetime in minutes ([None]: it outlived the load). *)
let policy_rows cfg ~shared disc arrays ~n_batteries =
  let horizon_name = Sched.Horizon.name ~k:cfg.degrade_horizon_k () in
  let policies =
    [
      (Sched.Policy.name Sched.Policy.Sequential, Sched.Policy.Sequential);
      (Sched.Policy.name Sched.Policy.Round_robin, Sched.Policy.Round_robin);
      (Sched.Policy.name Sched.Policy.Best_of, Sched.Policy.Best_of);
      (* Unbudgeted, so warmth cannot change a decision — the row stays
         byte-identical at any domain count. *)
      (horizon_name, Sched.Horizon.policy ~shared ~k:cfg.degrade_horizon_k ());
    ]
  in
  List.map
    (fun (name, policy) ->
      (name, Simulator.lifetime ~n_batteries ~policy disc arrays))
    policies

let compare_json ctx ?budget ~degrade (t : Protocol.target) =
  let disc = disc_of ctx t.Protocol.battery in
  let arrays = arrays_of_load t.Protocol.load in
  let n_batteries = t.Protocol.n_batteries in
  let lifetimes =
    policy_rows ctx.cfg ~shared:(plan_scope ctx) disc arrays ~n_batteries
  in
  let rows =
    String.concat ","
      (List.map
         (fun (name, l) ->
           Printf.sprintf "%s:%s" (Json.to_string (Json.String name)) (jlifetime l))
         lifetimes)
  in
  if degrade then
    ( Printf.sprintf
        "{\"policies\":{%s},\"optimal_min\":null,\"status\":\"skipped\"}" rows,
      Some "overload" )
  else
    let r =
      Optimal.search ?pool:ctx.hpool ?budget ~shared:ctx.memo ~n_batteries disc
        arrays
    in
    let status, degraded =
      match r.Optimal.status with
      | Optimal.Optimal -> ("optimal", None)
      | Optimal.Budget_exhausted { trip; _ } -> ("anytime", Some (note_trip trip))
    in
    let optimal_min, floor = Optimal.floored_minutes disc r lifetimes in
    ( Printf.sprintf "{\"policies\":{%s},\"optimal_min\":%s,\"status\":%s%s}"
        rows (jfloat optimal_min)
        (Json.to_string (Json.String status))
        (match floor with
        | None -> ""
        | Some name -> ",\"floor\":" ^ Json.to_string (Json.String name)),
      degraded )

let schedule_response ctx ?budget ~degrade (t : Protocol.target) =
  let disc = disc_of ctx t.Protocol.battery in
  let arrays = arrays_of_load t.Protocol.load in
  let n_batteries = t.Protocol.n_batteries in
  if degrade then
    ( degraded_schedule ctx.cfg ~shared:(plan_scope ctx) disc arrays
        ~n_batteries,
      Some "overload" )
  else
    schedule_json disc
      (Optimal.search ?pool:ctx.hpool ?budget ~shared:ctx.memo ~n_batteries disc
         arrays)

let quantiles_json qs =
  Json.List
    (List.map (fun (p, v) -> Json.List [ Json.Float p; Json.Float v ]) qs)

let montecarlo_json ctx ?budget (t : Protocol.target) (p : Protocol.mc_params) =
  let disc = disc_of ctx t.Protocol.battery in
  let model = Sched.Montecarlo.Onoff (Stoch.Onoff.make ~slots:p.Protocol.mc_slots ()) in
  let r =
    Sched.Montecarlo.run ?pool:ctx.hpool ?budget
      ?deadline_min:p.Protocol.mc_deadline_min
      ~n_batteries:t.Protocol.n_batteries
      ~seed:(Int64.of_int p.Protocol.mc_seed)
      ~samples:p.Protocol.mc_samples model disc
  in
  let open Sched.Montecarlo in
  let policy p =
    Json.Obj
      ([
         ("name", Json.String p.ps_policy);
         ("deaths", Json.Int p.ps_deaths);
         ("survived", Json.Int p.ps_survived);
         ("mean_min", Json.Float p.ps_mean);
         ("stddev_min", Json.Float p.ps_stddev);
         ("quantiles", quantiles_json p.ps_quantiles);
       ]
      @
      match p.ps_death_before with
      | None -> []
      | Some db ->
          [
            ( "death_before",
              Json.Obj
                [
                  ("deadline_min", Json.Float db.db_deadline_min);
                  ("fraction", Json.Float db.db_fraction);
                  ("ci_low", Json.Float db.db_ci_low);
                  ("ci_high", Json.Float db.db_ci_high);
                ] );
          ])
  in
  let dominance d =
    Json.Obj
      [
        ("a", Json.String d.dom_a);
        ("b", Json.String d.dom_b);
        ("a_wins", Json.Int d.dom_a_wins);
        ("b_wins", Json.Int d.dom_b_wins);
        ("ties", Json.Int d.dom_ties);
        ("a_fraction", Json.Float d.dom_a_fraction);
      ]
  in
  let json =
    Json.Obj
      [
        ("model", Json.String r.mc_model);
        ("seed", Json.Int (Int64.to_int r.mc_seed));
        ("samples_requested", Json.Int r.mc_samples_requested);
        ("samples", Json.Int r.mc_samples);
        ("policies", Json.List (List.map policy r.mc_policies));
        ("dominance", Json.List (List.map dominance r.mc_dominance));
      ]
  in
  (Json.to_string json, Option.map note_trip r.mc_tripped)

let ensemble_json ctx ?budget (t : Protocol.target) (p : Protocol.ens_params) =
  let disc = disc_of ctx t.Protocol.battery in
  let r =
    Sched.Ensemble.run ?pool:ctx.hpool ?budget
      ~seed:(Int64.of_int p.Protocol.ens_seed)
      ~n_loads:p.Protocol.ens_loads
      ~jobs_per_load:p.Protocol.ens_jobs_per_load
      ~n_batteries:t.Protocol.n_batteries
      ~include_optimal:p.Protocol.ens_include_optimal disc ()
  in
  let open Sched.Ensemble in
  let stats s =
    Json.Obj
      [
        ("mean", Json.Float s.mean);
        ("stddev", Json.Float s.stddev);
        ("min", Json.Float s.minimum);
        ("q25", Json.Float s.q25);
        ("median", Json.Float s.median);
        ("q75", Json.Float s.q75);
        ("max", Json.Float s.maximum);
      ]
  in
  let json =
    Json.Obj
      [
        ("loads", Json.Int r.n_loads);
        ( "per_policy",
          Json.Obj (List.map (fun (name, s) -> (name, stats s)) r.per_policy) );
        ("top_gain_over_rr", stats r.top_gain_over_rr);
        ("gain_baseline", Json.String r.gain_baseline);
        ("budget_exhausted", Json.Int r.budget_exhausted);
      ]
  in
  let degraded =
    if r.budget_exhausted > 0 then
      Some
        (match Option.map note_trip (Option.bind budget Guard.Budget.tripped) with
        | Some reason -> reason
        | None -> "budget")
    else None
  in
  (Json.to_string json, degraded)

let stats_json ctx =
  let snap = Obs.snapshot () in
  let prefixed prefix name =
    String.length name >= String.length prefix
    && String.sub name 0 (String.length prefix) = prefix
  in
  let counters =
    List.filter_map
      (fun (name, v) ->
        if prefixed "serve." name then Some (name, Json.Int v) else None)
      snap.Obs.counters
  in
  let hists =
    List.filter_map
      (fun (name, buckets) ->
        if prefixed "serve.latency_us." name then
          Some
            ( String.sub name 17 (String.length name - 17),
              Json.List
                (List.map
                   (fun (ub, count) ->
                     Json.List
                       [
                         (if ub = max_int then Json.Null else Json.Int ub);
                         Json.Int count;
                       ])
                   buckets) )
        else None)
      snap.Obs.histograms
  in
  let ms = Memo.stats ctx.memo in
  Json.to_string
    (Json.Obj
       [
         ("queue_depth", Json.Int (Admission.depth ctx.adm));
         ("connections", Json.Int (Hashtbl.length ctx.conns));
         ("draining", Json.Bool ctx.draining);
         ("requests_served", Json.Int ctx.served_total);
         ("domains", Json.Int ctx.cfg.domains);
         ( "cache",
           Json.Obj
             [
               ("entries", Json.Int (Cache.entries ctx.cache));
               ("capacity", Json.Int ctx.cfg.cache_max_entries);
               ("hits", Json.Int (Cache.hits ctx.cache));
               ("misses", Json.Int (Cache.misses ctx.cache));
               ("lookups", Json.Int (Cache.lookups ctx.cache));
               ("evictions", Json.Int (Cache.evictions ctx.cache));
             ] );
         ( "memo",
           Json.Obj
             [
               ("entries", Json.Int ms.Memo.st_entries);
               ("capacity", Json.Int ms.Memo.st_capacity);
               ("lookups", Json.Int ms.Memo.st_lookups);
               ("hits", Json.Int ms.Memo.st_hits);
               ("misses", Json.Int ms.Memo.st_misses);
               ("insertions", Json.Int ms.Memo.st_insertions);
               ("evictions", Json.Int ms.Memo.st_evictions);
             ] );
         ("counters", Json.Obj counters);
         ("latency_us", Json.Obj hists);
       ])

(* One admitted request, end to end: cache lookup, degradation
   decision, computation, cache fill.  Every failure mode inside the
   handlers — bad spec geometry, too-short loads, budget misuse —
   lands in a structured error response; nothing escapes to the
   event loop. *)
let answer ctx (req : Protocol.request) =
  let id = req.Protocol.id in
  try
    let key = Protocol.cache_key req in
    match Option.map (Cache.find ctx.cache) key with
    | Some (Some payload) -> Protocol.ok_response ~id payload
    | _ ->
        let budget = Protocol.budget_of_request req in
        let degrade = Admission.congested ctx.adm in
        let result_json, degraded =
          match req.Protocol.query with
          | Protocol.Schedule t -> schedule_response ctx ?budget ~degrade t
          | Protocol.Compare t -> compare_json ctx ?budget ~degrade t
          | Protocol.Montecarlo (t, p) -> montecarlo_json ctx ?budget t p
          | Protocol.Ensemble (t, p) -> ensemble_json ctx ?budget t p
          | Protocol.Stats -> (stats_json ctx, None)
        in
        (match degraded with
        | None -> Option.iter (fun k -> Cache.add ctx.cache k result_json) key
        | Some _ -> Obs.incr c_degraded);
        Protocol.ok_response ~id ?degraded result_json
  with
  | Guard.Error.Error e -> Protocol.error_response ~id e
  | Optimal.Load_too_short ->
      Protocol.error_response ~id
        (serr ~field:"load" ~accepted:"a load the batteries cannot outlive"
           "the batteries outlive the load; extend its horizon")
  | Invalid_argument msg ->
      Protocol.error_response ~id
        (serr ~field:"request" ~value:msg "invalid request parameters")
  | Stack_overflow ->
      Protocol.error_response ~id
        (serr ~field:"request" "search exceeded the stack; use a budget")
  | exn ->
      Protocol.error_response ~id
        (serr ~field:"request" ~value:(Printexc.to_string exn) "internal error")

(* -------------------------------------------------------------- *)
(* Dispatch and delivery                                          *)
(* -------------------------------------------------------------- *)

(* Runs on whichever domain computes the request: the event loop at
   [domains = 1], a pool worker otherwise.  Touches only thread-safe
   state — the caches, the admission queue, Obs (per-domain sinks) —
   never a connection. *)
let compute_item ctx (it : item) =
  let t0 = Obs.now_ns () in
  let line = answer ctx it.it_req in
  let t1 = Obs.now_ns () in
  Obs.incr c_dispatched;
  {
    co_it = it;
    co_line = line;
    co_service_ms = float_of_int (t1 - t0) /. 1e6;
    co_done_ns = t1;
  }

(* Worker side of the hand-back: queue the completion, wake the
   select.  A full pipe means a wake-up is already pending — exactly
   what the byte is for — so EAGAIN is success; any other write error
   means the loop is already gone and the completion will be collected
   by the shutdown path. *)
let push_completion ctx comp =
  Mutex.lock ctx.comp_lock;
  Queue.push comp ctx.comp_q;
  Mutex.unlock ctx.comp_lock;
  try ignore (Unix.write ctx.wake_w (Bytes.make 1 '!') 0 1 : int)
  with Unix.Unix_error _ -> ()

(* Event loop only.  Releases finished lines in admission order: a
   response whose predecessors are still computing parks in the
   sequence buffer, and each delivery releases every consecutive
   successor already parked.  [pending] reaches 0 only once the buffer
   is empty, so the idle sweep can never reap a connection holding
   parked responses.  Every admitted item passes through here exactly
   once — answered, shed or dropped — which is what the drain ledger
   ([admitted] / [delivered]) counts. *)
let deliver_line ctx (it : item) line =
  ctx.delivered <- ctx.delivered + 1;
  let conn = it.it_conn in
  if conn.closed then Obs.incr c_dropped
  else begin
    conn.pending <- conn.pending - 1;
    conn.last_activity_ns <- Obs.now_ns ();
    Obs.incr c_responses;
    ctx.served_total <- ctx.served_total + 1;
    Hashtbl.replace conn.resp_buf it.it_seq line;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt conn.resp_buf conn.resp_next with
      | Some l ->
          Hashtbl.remove conn.resp_buf conn.resp_next;
          conn.resp_next <- conn.resp_next + 1;
          send ctx conn l
      | None -> continue := false
    done
  end

let deliver ctx comp =
  let it = comp.co_it in
  observe_latency
    (kind_of_query it.it_req.Protocol.query)
    ((comp.co_done_ns - it.it_enq_ns) / 1000);
  Admission.note_service_ms ctx.adm comp.co_service_ms;
  deliver_line ctx it comp.co_line

let drain_completions ctx =
  Mutex.lock ctx.comp_lock;
  let comps = List.of_seq (Queue.to_seq ctx.comp_q) in
  Queue.clear ctx.comp_q;
  Mutex.unlock ctx.comp_lock;
  List.iter (deliver ctx) comps

(* One ticket per admitted item.  The ticket pops the queue rather than
   carrying its item, so the (mutexed) pop is the arbiter between
   tickets and the drain-deadline shed: an item is computed or shed,
   never both, never neither.  At [domains = 1] there is no dispatch
   pool and the event loop serves the queue itself ([process_one]). *)
let dispatch_one ctx =
  match ctx.dispatch with
  | None -> ()
  | Some pool ->
      Exec.Pool.submit pool (fun () ->
          match Admission.pop ctx.adm with
          | None -> ()
          | Some it -> push_completion ctx (compute_item ctx it))

(* -------------------------------------------------------------- *)
(* Frame intake                                                   *)
(* -------------------------------------------------------------- *)

let err_overloaded = serr ~field:"queue" "overloaded"

let err_conn_cap =
  serr ~field:"connection"
    ~accepted:"wait for earlier responses before sending more"
    "too many requests in flight on this connection"

let err_draining = serr ~field:"server" "shutting down; not accepting requests"

let err_drain_shed =
  serr ~field:"server" ~accepted:"retry against the restarted daemon"
    "drain deadline expired before this request was served"

let err_oversized max =
  serr ~field:"frame"
    ~accepted:(Printf.sprintf "at most %d bytes per line" max)
    "oversized frame"

let err_request_cap cap =
  serr ~field:"connection"
    ~value:(string_of_int cap)
    "per-connection request cap reached; closing"

let respond_stats ctx conn (req : Protocol.request) =
  Obs.incr c_requests;
  let t0 = Obs.now_ns () in
  let line = Protocol.ok_response ~id:req.Protocol.id (stats_json ctx) in
  Obs.incr c_responses;
  ctx.served_total <- ctx.served_total + 1;
  observe_latency "stats" ((Obs.now_ns () - t0) / 1000);
  send ctx conn line

let handle_frame ctx conn line =
  conn.frames <- conn.frames + 1;
  match ctx.cfg.max_requests_per_conn with
  | Some cap when conn.frames > cap ->
      send ctx conn (Protocol.error_response ~id:Json.Null (err_request_cap cap));
      conn.close_after_flush <- true
  | _ -> (
      if ctx.draining then begin
        Obs.incr c_refused_draining;
        send ctx conn (Protocol.error_response ~id:Json.Null err_draining)
      end
      else
        match Protocol.parse_request line with
        | Error (id, e) ->
            Obs.incr c_malformed;
            send ctx conn (Protocol.error_response ~id e)
        | Ok req -> (
            match req.Protocol.query with
            | Protocol.Stats -> respond_stats ctx conn req
            | _ ->
                if conn.pending >= ctx.cfg.max_pending_per_conn then begin
                  Obs.incr c_shed;
                  send ctx conn
                    (Protocol.error_response ~id:req.Protocol.id
                       ~retry_after_ms:(Admission.retry_after_ms ctx.adm)
                       err_conn_cap)
                end
                else
                  let it =
                    {
                      it_req = req;
                      it_conn = conn;
                      it_enq_ns = Obs.now_ns ();
                      it_seq = conn.seq_next;
                    }
                  in
                  (match Admission.offer ctx.adm it with
                  | `Admitted ->
                      conn.seq_next <- conn.seq_next + 1;
                      conn.pending <- conn.pending + 1;
                      ctx.admitted <- ctx.admitted + 1;
                      Obs.incr c_requests;
                      dispatch_one ctx
                  | `Shed ->
                      Obs.incr c_shed;
                      send ctx conn
                        (Protocol.error_response ~id:req.Protocol.id
                           ~retry_after_ms:(Admission.retry_after_ms ctx.adm)
                           err_overloaded))))

(* Feed freshly read bytes through the line splitter.  The per-frame
   byte cap applies to the partial buffer too, so a slow-loris client
   streaming an endless line is answered (once) and its tail swallowed
   up to the next newline instead of accumulating. *)
let feed ctx conn data =
  let buf = ref (conn.rbuf ^ data) in
  conn.rbuf <- "";
  let continue = ref true in
  while !continue && not conn.closed do
    match String.index_opt !buf '\n' with
    | Some i ->
        let line = String.sub !buf 0 i in
        buf := String.sub !buf (i + 1) (String.length !buf - i - 1);
        if conn.discarding then conn.discarding <- false
        else if String.length line > ctx.cfg.max_frame_bytes then begin
          Obs.incr c_oversized;
          send ctx conn
            (Protocol.error_response ~id:Json.Null
               (err_oversized ctx.cfg.max_frame_bytes))
        end
        else if line <> "" then handle_frame ctx conn line
    | None ->
        if conn.discarding then buf := ""
        else if String.length !buf > ctx.cfg.max_frame_bytes then begin
          Obs.incr c_oversized;
          send ctx conn
            (Protocol.error_response ~id:Json.Null
               (err_oversized ctx.cfg.max_frame_bytes));
          conn.discarding <- true;
          buf := ""
        end;
        continue := false
  done;
  if not conn.closed then conn.rbuf <- !buf

let handle_readable ctx conn =
  let bytes = Bytes.create 8192 in
  match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
  | 0 -> close_conn ctx conn `Disconnect
  | n ->
      conn.last_activity_ns <- Obs.now_ns ();
      feed ctx conn (Bytes.sub_string bytes 0 n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn ctx conn `Disconnect

(* -------------------------------------------------------------- *)
(* Queue service                                                  *)
(* -------------------------------------------------------------- *)

(* The [domains = 1] service path: one queued request per loop
   iteration, computed inline. *)
let process_one ctx =
  match ctx.dispatch with
  | Some _ -> ()
  | None -> (
      match Admission.pop ctx.adm with
      | None -> ()
      | Some it ->
          if it.it_conn.closed then begin
            ctx.delivered <- ctx.delivered + 1;
            Obs.incr c_dropped
          end
          else deliver ctx (compute_item ctx it))

(* The drain-deadline shed — the fix for the silent-drop bug: every
   item still queued when the deadline expires is answered with a
   structured error carrying [retry_after_ms], through the same
   ordered-delivery path as a computed response, and counted in the
   drain ledger.  Racing worker tickets is safe: the queue pop decides
   ownership. *)
let shed_queued ctx =
  List.iter
    (fun it ->
      Obs.incr c_drain_shed;
      deliver_line ctx it
        (Protocol.error_response ~id:it.it_req.Protocol.id
           ~retry_after_ms:(Admission.retry_after_ms ctx.adm)
           err_drain_shed))
    (Admission.drain ctx.adm)

(* Swallow the self-pipe bytes that woke the select. *)
let drain_wake ctx =
  let buf = Bytes.create 256 in
  let continue = ref true in
  while !continue do
    match Unix.read ctx.wake_r buf 0 (Bytes.length buf) with
    | 0 -> continue := false
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* -------------------------------------------------------------- *)
(* The event loop                                                 *)
(* -------------------------------------------------------------- *)

let listen_socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Guard.Error.raise_exn
       (serr ~field:"socket_path" ~value:path
          ~accepted:"a bindable Unix-domain socket path"
          (Printf.sprintf "cannot bind: %s" (Unix.error_message e))));
  Unix.listen fd 64;
  fd

let accept_ready ctx listen_fd =
  let continue = ref true in
  while !continue && Hashtbl.length ctx.conns < ctx.cfg.max_conns do
    match Unix.accept listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let cid = Obs.now_ns () + Hashtbl.length ctx.conns in
        let cid =
          (* now_ns collisions are possible; probe to a free id *)
          let rec free i = if Hashtbl.mem ctx.conns i then free (i + 1) else i in
          free cid
        in
        let conn =
          {
            fd;
            cid;
            rbuf = "";
            discarding = false;
            outq = Queue.create ();
            wcur = "";
            woff = 0;
            last_activity_ns = Obs.now_ns ();
            pending = 0;
            frames = 0;
            seq_next = 0;
            resp_next = 0;
            resp_buf = Hashtbl.create 4;
            close_after_flush = false;
            closed = false;
          }
        in
        Hashtbl.add ctx.conns cid conn;
        Obs.incr c_accepted;
        Obs.gauge_max g_conns (Hashtbl.length ctx.conns)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
      ->
        continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let sweep_idle ctx now_ns =
  let timeout_ns = int_of_float (ctx.cfg.idle_timeout_s *. 1e9) in
  let stale =
    Hashtbl.fold
      (fun _ conn acc ->
        if conn.pending = 0 && (not (has_output conn))
           && now_ns - conn.last_activity_ns > timeout_ns
        then conn :: acc
        else acc)
      ctx.conns []
  in
  List.iter (fun conn -> close_conn ctx conn `Idle) stale

(* Drained when the ledger balances — every admitted item answered,
   shed or dropped (in-flight worker requests keep the loop alive; the
   old depth-only check could not see them) — and every response byte
   is on the wire. *)
let drain_done ctx =
  ctx.delivered = ctx.admitted
  && Hashtbl.fold (fun _ conn acc -> acc && not (has_output conn)) ctx.conns true

let run ?stop ?abort ?(handle_signals = false) ?ready cfg =
  validate_config cfg;
  let stop = match stop with Some t -> t | None -> Guard.Cancel.create () in
  let abort = match abort with Some t -> t | None -> Guard.Cancel.create () in
  if not (Obs.enabled ()) then Obs.enable ();
  let cache, load_status =
    Cache.create ?path:cfg.cache_path ~save_every:cfg.cache_save_every
      ~max_entries:cfg.cache_max_entries ()
  in
  (match load_status with
  | Cache.Discarded e ->
      Printf.eprintf "batsched serve: discarding cache snapshot: %s\n%!"
        (Guard.Error.to_string e)
  | Cache.Cold | Cache.Warm _ -> ());
  let disc params =
    Dkibam.Discretization.make ~time_step:Batsched.Experiments.time_step
      ~charge_unit:Batsched.Experiments.charge_unit params
  in
  (* [cfg.domains] worker domains compute; the event loop never does —
     Pool.create counts the submitting domain, hence the +1.  The
     in-request compute pool is worker-incompatible (its batch
     combinators are single-submitter), so multi-domain workers run
     handlers without it: parallelism comes from concurrent requests. *)
  let dispatch =
    if cfg.domains > 1 then Some (Exec.Pool.create ~domains:(cfg.domains + 1) ())
    else None
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let ctx =
    {
      cfg;
      cache;
      memo = Memo.create ~capacity:cfg.memo_max_entries ();
      adm = Admission.create ~capacity:cfg.max_queue ~watermark:cfg.degrade_watermark;
      conns = Hashtbl.create 16;
      disc_b1 = disc Kibam.Params.b1;
      disc_b2 = disc Kibam.Params.b2;
      hpool = (if cfg.domains > 1 then None else cfg.pool);
      dispatch;
      comp_lock = Mutex.create ();
      comp_q = Queue.create ();
      wake_r;
      wake_w;
      draining = false;
      drain_started_ns = 0;
      served_total = 0;
      admitted = 0;
      delivered = 0;
    }
  in
  let listen_fd = listen_socket cfg.socket_path in
  let listen_open = ref true in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let old_term = ref None and old_int = ref None in
  if handle_signals then begin
    (* The handler only latches the token — the loop's select wakes on
       EINTR and observes it.  Nothing async-unsafe runs here. *)
    let latch = Sys.Signal_handle (fun _ -> Guard.Cancel.cancel stop) in
    old_term := Some (Sys.signal Sys.sigterm latch);
    old_int := Some (Sys.signal Sys.sigint latch)
  end;
  let aborted = ref false in
  let cleanup () =
    (* Idempotent; on the abort path this is where the workers are
       joined (their queued tickets still run — the pool drains its
       queue — but the completions are discarded with the process, as
       a real crash would). *)
    (match dispatch with Some p -> Exec.Pool.shutdown p | None -> ());
    (try Unix.close ctx.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close ctx.wake_w with Unix.Unix_error _ -> ());
    (if !listen_open then try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Hashtbl.iter (fun _ conn -> close_conn ctx conn `Normal)
      (Hashtbl.copy ctx.conns);
    (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    Sys.set_signal Sys.sigpipe old_pipe;
    Option.iter (Sys.set_signal Sys.sigterm) !old_term;
    Option.iter (Sys.set_signal Sys.sigint) !old_int
  in
  Fun.protect ~finally:cleanup (fun () ->
      Option.iter (fun f -> f ()) ready;
      let running = ref true in
      while !running do
        if Guard.Cancel.is_set abort then begin
          (* Simulated crash: stop dead, skip the final save.  Whatever
             the periodic saves persisted is the (consistent) snapshot a
             restart will warm from. *)
          aborted := true;
          running := false
        end
        else begin
          if Guard.Cancel.is_set stop && not ctx.draining then begin
            ctx.draining <- true;
            ctx.drain_started_ns <- Obs.now_ns ();
            (try Unix.close listen_fd with Unix.Unix_error _ -> ());
            listen_open := false
          end;
          let drain_elapsed_s =
            if ctx.draining then
              float_of_int (Obs.now_ns () - ctx.drain_started_ns) /. 1e9
            else 0.0
          in
          (* Deadline expired: shed the still-queued tail (answered,
             not dropped), then keep looping for in-flight worker
             completions and unflushed bytes up to a hard cap — the
             deadline again, plus a second of slack. *)
          if ctx.draining && drain_elapsed_s > cfg.drain_deadline_s then
            shed_queued ctx;
          let drain_hard_expired =
            ctx.draining
            && drain_elapsed_s > (2.0 *. cfg.drain_deadline_s) +. 1.0
          in
          if ctx.draining && (drain_done ctx || drain_hard_expired) then
            running := false
          else begin
            let conns = Hashtbl.fold (fun _ c acc -> c :: acc) ctx.conns [] in
            let rfds =
              List.filter_map
                (fun c -> if c.close_after_flush then None else Some c.fd)
                conns
            in
            let rfds =
              if
                !listen_open && (not ctx.draining)
                && Hashtbl.length ctx.conns < cfg.max_conns
              then listen_fd :: rfds
              else rfds
            in
            let rfds = ctx.wake_r :: rfds in
            let wfds =
              List.filter_map
                (fun c -> if has_output c then Some c.fd else None)
                conns
            in
            (* Inline service busy-polls a non-empty queue; dispatched
               service is woken by the completion pipe instead. *)
            let timeout =
              match ctx.dispatch with
              | None -> if Admission.depth ctx.adm > 0 then 0.0 else 0.05
              | Some _ -> 0.05
            in
            let readable, writable, _ =
              try Unix.select rfds wfds [] timeout
              with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
            in
            if List.memq ctx.wake_r readable then drain_wake ctx;
            if !listen_open && List.memq listen_fd readable then
              accept_ready ctx listen_fd;
            List.iter
              (fun conn ->
                if (not conn.closed) && List.memq conn.fd readable then
                  handle_readable ctx conn)
              conns;
            List.iter
              (fun conn ->
                if (not conn.closed) && List.memq conn.fd writable then
                  try_flush ctx conn)
              conns;
            drain_completions ctx;
            sweep_idle ctx (Obs.now_ns ());
            process_one ctx
          end
        end
      done;
      if not !aborted then begin
        (* The loop can exit (hard cap) with tickets still computing:
           join the workers — queued tickets all run — then deliver
           what they finished and push the tail onto the wire, so an
           accepted request is only ever unanswered if its client is
           gone.  [shed_queued] is a no-op unless the pop race left
           items behind. *)
        (match dispatch with Some p -> Exec.Pool.shutdown p | None -> ());
        drain_completions ctx;
        shed_queued ctx;
        Hashtbl.iter (fun _ conn -> try_flush ctx conn) (Hashtbl.copy ctx.conns);
        Cache.save cache
      end;
      { requests_served = ctx.served_total; aborted = !aborted })
