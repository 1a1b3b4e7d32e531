(** A fixed-size domain pool for embarrassingly parallel fan-out.

    OCaml 5 gives the runtime real parallelism through domains; this
    module packages it in the only shape the library needs: a fixed set
    of worker domains created once and shared across call sites (pools
    are expensive — [Domain.spawn] is a system thread), plus chunked
    [parallel_map] / [parallel_init] combinators whose results are
    {e deterministic}: slot [i] of the output always holds [f] applied
    to input [i], no matter which domain ran it or in which order
    chunks completed.

    The submitting domain participates in the work, so a pool of
    [domains = n] applies [n]-way parallelism with [n - 1] spawned
    workers; [domains = 1] spawns nothing and degenerates to the plain
    serial combinators — callers can thread one code path through both
    modes.  Tasks must not themselves submit work to the same pool from
    a worker (the library never does); submitting from the one domain
    that owns the pool is the supported pattern.

    Exceptions raised by tasks are captured; the batch runs to
    completion (every task either runs or is drained) and the first
    captured exception is re-raised — with its backtrace — in the
    submitting domain.

    Cancellation: the batch combinators accept a {!Guard.Cancel.t}
    token.  Once the token fires, every task of the batch that has not
    yet started becomes a no-op (in-flight tasks finish — nothing is
    interrupted mid-update), and the combinator raises
    {!Guard.Cancel.Cancelled} after the batch drains, unless a task
    exception takes precedence.  This is how a tripped
    {!Guard.Budget} stops all domains promptly: the budget's token is
    the one passed here, and budget-aware tasks additionally observe
    the same token through their own budget checks.

    Fault injection (tests only): a pool created with a
    {!Guard.Chaos.t} hook wraps every task dispatch with an injected
    delay and a possible injected crash.  Injected crashes are
    retried up to [retries] times — tasks are pure, so re-running one
    is safe — and the [pool.retries] counter records each retry; real
    exceptions are never retried.  Production call sites simply omit
    [chaos].

    Determinism contract: given pure per-item work, results are
    bit-identical to the serial path for every [domains] and [chunk]
    value.  The scheduling parallelism changes only wall-clock time,
    never values — asserted across this repo's test suite for the
    ensemble and optimal-search call sites.

    Observability: with [Obs] enabled each batch records the
    [pool.batch] span plus per-task [pool.tasks] / [pool.busy_ns] /
    [pool.queue_wait_ns] counters — busy time lands in the sink of the
    domain that ran the task, so the merged snapshot's per-domain
    breakdown is the pool's utilization picture ([--stats] derives the
    busy fractions from it).  [parallel_init] also records chosen chunk
    sizes in the [pool.chunk_size] histogram.  Instrumentation is
    decided once per batch; disabled, the pool's hot path is
    unchanged. *)

type t
(** A pool handle.  The {e batch} combinators ({!parallel_init} and
    friends) are single-submitter: one domain at a time, typically the
    owner.  {!submit} is the exception — it is safe from any domain. *)

val create : ?domains:int -> ?chaos:Guard.Chaos.t -> ?retries:int -> unit -> t
(** [create ()] sizes the pool to [Domain.recommended_domain_count].
    [domains] overrides the size (total parallelism, including the
    submitting domain); it must be [>= 1].  [domains = 1] spawns no
    worker domains.  [chaos] injects dispatch faults and [retries]
    (default 3, [>= 0]) bounds the re-runs of an injected crash — see
    the module preamble. *)

val size : t -> int
(** Total parallelism: worker domains + the submitting domain. *)

val shutdown : t -> unit
(** Signal the workers to exit and join them.  Idempotent, and safe to
    initiate from two call sites at once (an atomic latch elects the
    one caller that joins; the others return immediately, without
    waiting for the join to finish).  Submitting to a pool after
    [shutdown] raises [Invalid_argument].

    Signal handlers should {e not} call this directly — a handler can
    interrupt a domain that holds the pool mutex.  The supported
    pattern (used by [batsched serve]) is to latch a {!Guard.Cancel.t}
    from the handler and let the event loop observe it and call
    [shutdown] from ordinary code. *)

val with_pool :
  ?domains:int -> ?chaos:Guard.Chaos.t -> ?retries:int -> (t -> 'a) -> 'a
(** [with_pool f]: [create], run [f], always [shutdown]. *)

val submit : t -> (unit -> unit) -> unit
(** Fire-and-forget: enqueue one task and return immediately.  Unlike
    the batch combinators this is safe to call from {e any} domain (the
    enqueue and the shutdown check share the workers' mutex), which is
    what lets the daemon's event loop keep dispatching while workers
    run.  Nobody observes a submitted task's completion or exception —
    arrange signalling inside the task; an escaping exception is
    swallowed and counted under [pool.submit_errors], never resurfaced.
    Tasks submitted before {!shutdown} all run (workers drain the queue
    before exiting); submitting after it raises [Invalid_argument].
    Chaos and Obs instrumentation wrap submitted tasks exactly as they
    wrap batch tasks. *)

val parallel_init :
  ?cancel:Guard.Cancel.t -> ?chunk:int -> t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f] with the calls to [f]
    distributed over the pool in contiguous chunks of [chunk] indices
    (default: [n] split about eight ways per domain, at least 1).
    Result slot [i] always holds [f i].  [n] must be [>= 0]; [chunk]
    must be [>= 1].  If [cancel] fires mid-batch, unstarted chunks are
    skipped and {!Guard.Cancel.Cancelled} is raised once the batch has
    drained (the partial results are discarded with it). *)

val parallel_map :
  ?cancel:Guard.Cancel.t -> ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f a] is [Array.map f a], distributed. *)
