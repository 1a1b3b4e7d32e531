(** The [batsched serve] daemon: a fault-tolerant scheduling server.

    An event loop over a Unix-domain socket, speaking the newline-JSON
    {!Protocol}, optionally backed by a pool of worker domains, built
    around one organizing principle: {e the daemon never crashes and
    never queues unboundedly} — every overload, malformed input,
    deadline and crash has a designed outcome (doc/ROBUSTNESS.md,
    "The scheduling daemon").

    - {b Multi-domain dispatch} ([domains]): one domain owns every
      connection and all protocol state; with [domains > 1] each
      admitted request becomes a worker ticket popping the admission
      queue, and finished answers return over a completion queue plus
      a self-pipe, released per connection in admission order.
      Workers share only exact values — {!Sched.Memo} entries and
      cached responses — so non-degraded answers are byte-identical at
      any domain count (doc/ARCHITECTURE.md, "The daemon's concurrency
      model").
    - {b Admission control} ({!Admission}): a bounded request queue.
      A full queue sheds with a structured [overloaded] error carrying
      [retry_after_ms]; per-connection pending caps stop one client
      from filling it.
    - {b Deadlines with anytime answers}: each request's
      [deadline_ms] / [max_segments] becomes a fresh {!Guard.Budget};
      a search that trips mid-flight returns its anytime floor tagged
      [degraded:true] with the trip as the reason — an answer, not an
      error.
    - {b Graceful degradation}: when queue depth crosses the
      watermark, exact-search requests ([schedule], [compare]) are
      downgraded to the receding-horizon planner ({!Sched.Horizon})
      under a small per-decision budget, tagged
      [degraded_reason:"overload"].
    - {b Durable cache} ({!Cache}): exact answers persist across
      restarts via atomic {!Guard.Checkpoint} snapshots; a [kill -9]
      mid-save never corrupts it, and a warm daemon answers repeated
      queries byte-identically to a cold one.  Both it and the
      process-wide exact-value memo ({!Sched.Memo}) are size-bounded
      with second-chance eviction, so week-long daemons hold steady.
    - {b Protocol robustness}: malformed JSON, oversized frames,
      slow-loris partial lines, idle connections and mid-request
      disconnects each produce a structured error or a clean close —
      fuzzed with 10k+ hostile frames in [test/test_serve.ml].
    - {b Draining shutdown}: SIGTERM/SIGINT (or the [stop] token)
      finish in-flight requests, refuse new ones with a
      [shutting_down] error, save the cache, then exit.  A drain
      ledger (admitted vs. delivered) guarantees every accepted
      request is answered, shed with [retry_after_ms] at the drain
      deadline, or counted dropped — never lost silently, even with
      requests in flight on worker domains.

    Observability: the [serve.*] counter/gauge/histogram family
    (per-kind latency histograms, queue-depth watermark, shed /
    degraded / deadline-trip / malformed counters), exported through
    the protocol's [stats] request; see doc/OBSERVABILITY.md. *)

type config = {
  socket_path : string;
  max_conns : int;  (** concurrent connections; beyond it, accepts wait *)
  max_queue : int;  (** admission queue capacity *)
  degrade_watermark : int;  (** queue depth that turns degradation on *)
  degrade_horizon_k : int;  (** planner window of degraded answers *)
  degrade_budget : int;  (** per-decision segment budget of degraded answers *)
  max_frame_bytes : int;  (** longest accepted request line *)
  max_pending_per_conn : int;  (** unanswered requests per connection *)
  max_requests_per_conn : int option;
      (** lifetime request cap per connection; the connection is closed
          (after a structured error) once exceeded *)
  idle_timeout_s : float;  (** close connections silent this long *)
  drain_deadline_s : float;  (** hard cap on the draining phase *)
  cache_path : string option;  (** cache snapshot file; [None] = in-memory *)
  cache_save_every : int;  (** autosave cadence, in inserts *)
  cache_max_entries : int;  (** response-cache size bound *)
  memo_max_entries : int;  (** shared exact-value memo size bound *)
  domains : int;
      (** worker domains computing requests concurrently; [1] (the
          default) computes inline on the event loop *)
  pool : Exec.Pool.t option;
      (** fan searches out over this pool (and inherit its chaos hook,
          if the CI chaos pass armed one).  Ignored when [domains > 1]:
          the pool's batch combinators are single-submitter, so
          concurrent workers must not share it — parallelism then comes
          from concurrent requests instead *)
}

val default_config : socket_path:string -> config
(** 64 connections, queue 128 / watermark 64, horizon-4 with a
    2000-segment per-decision budget when degraded, 64 KiB frames, 16
    pending per connection, no lifetime cap, 30 s idle timeout, 10 s
    drain deadline, in-memory cache saved every 32 inserts, cache and
    memo bounded at 65536 entries each, 1 domain. *)

type outcome = {
  requests_served : int;
  aborted : bool;  (** the [abort] token fired (simulated crash) *)
}

val run :
  ?stop:Guard.Cancel.t ->
  ?abort:Guard.Cancel.t ->
  ?handle_signals:bool ->
  ?ready:(unit -> unit) ->
  config ->
  outcome
(** Run the daemon until [stop] (graceful drain) or [abort] (immediate
    exit {e without} the final cache save — the tests' simulated
    [kill -9]; periodic saves remain on disk, atomically).

    [handle_signals] (default [false]) additionally latches [stop] on
    SIGTERM/SIGINT — the CLI turns it on; in-process tests leave it
    off.  SIGPIPE is always ignored while running (a client vanishing
    mid-write must be an [EPIPE], not a death sentence).  [ready] is
    called once the socket is listening.

    Raises {!Guard.Error.Error} only for startup failures (socket path
    unusable); once serving, it returns — it does not raise. *)
