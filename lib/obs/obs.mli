(** Low-overhead observability: counters, gauges, histograms, spans and
    a Chrome-[trace_event] emitter for the search/simulation hot paths.

    The library answers one question the ROADMAP keeps asking: {e where
    does the time go?}  Every hot path (the memoized optimal search, the
    zone-based reachability engine, the domain pool, the ensemble
    runner, the dKiBaM engine) registers named metrics here; the CLI
    surfaces them behind [--stats] / [--trace FILE], and perfbench's
    traced runs read them.

    Design constraints, in order:

    - {b Disabled means free.}  Collection is off until {!enable} is
      called; every instrumentation call first reads one [Atomic.t]
      flag and returns.  Instrumented code must be bit-identical in
      output and within noise in wall time when observability is off —
      the test suite asserts the first, and perfbench times every
      change with observability off.
    - {b Lock-free on the hot path.}  Each domain owns a private sink
      (via [Domain.DLS]); an instrumentation call touches only its own
      domain's flat [int array] slots, indexed by metric id.  The only
      mutex guards metric registration and sink enrolment — both cold.
    - {b Deterministic merges.}  {!snapshot} folds the per-domain sinks
      with commutative operations (sum for counters, max for gauges,
      bucket-wise sum for histograms), so an instrumented parallel run
      reports the same totals regardless of how work was scheduled.
    - {b Zero dependencies} beyond the compiler distribution (the
      [unix] library supplies the clock).

    Metric handles are {e interned once} at module initialization
    ([let c = Obs.counter "optimal.segments"]) and used many times;
    registering the same name twice returns the same handle.  The
    registry is global and lives for the whole process — {!reset}
    clears values, never names.

    Clock: {!now_ns} is [Unix.gettimeofday] scaled to integer
    nanoseconds.  It is not formally monotonic, so span durations are
    clamped at zero and trace timestamps are rebased to the earliest
    event at render time; at the microsecond granularity Chrome's
    viewer displays, this is indistinguishable from a monotonic
    source. *)

(** {1 Runtime switch} *)

val enable : ?trace:bool -> unit -> unit
(** Start collecting.  [trace] (default [false]) additionally records
    every span as a Chrome [trace_event] — stats alone never allocate
    per-event.  Call from the domain that owns the computation, before
    spawning worker domains. *)

val disable : unit -> unit
(** Stop collecting.  Recorded values are kept until {!reset}. *)

val enabled : unit -> bool

val tracing : unit -> bool
(** Are span events being recorded? Implies {!enabled}. *)

val reset : unit -> unit
(** Zero every metric in every sink and drop all trace events.  Metric
    registrations survive. *)

val now_ns : unit -> int
(** Wall clock in integer nanoseconds (see the module preamble for the
    monotonicity caveat).  Exposed so instrumentation outside this
    module (e.g. the pool's queue-latency measurement) shares one
    clock. *)

(** {1 Metrics}

    All recording functions are no-ops while disabled. *)

type counter

val counter : string -> counter
(** Intern (or retrieve) the counter named [name].  Counters only ever
    increase; merged by summation. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c n] adds [n] (which must be [>= 0]; negative values are
    ignored) to [c] in the calling domain's sink. *)

type gauge

val gauge : string -> gauge
(** A high-watermark gauge; merged by maximum. *)

val gauge_max : gauge -> int -> unit
(** Raise the gauge to [v] if [v] exceeds the domain-local watermark. *)

type histogram

val histogram : string -> histogram
(** A power-of-two histogram: observation [v] lands in bucket
    [ceil(log2 (v + 1))], i.e. bucket 0 holds [v <= 0], bucket [k >= 1]
    holds [2^(k-1) <= v < 2^k].  Merged bucket-wise. *)

val observe : histogram -> int -> unit

type span

val span : string -> span
(** A named region of wall time.  Aggregated as (call count, total ns);
    when {!tracing}, each execution additionally appends one complete
    ([ph = "X"]) trace event. *)

val time : ?index:int -> span -> (unit -> 'a) -> 'a
(** [time sp f] runs [f] and attributes its wall time to [sp]; the
    timing survives exceptions.  Spans nest freely (the trace renderer
    shows nesting per domain).  [index] tags the trace event's [args]
    with [{"i": index]} — use it to tell fan-out iterations apart
    (per-load, per-branch); it does not affect aggregation. *)

(** {1 Snapshots} *)

type span_stat = { calls : int; total_ns : int }

type snapshot = {
  counters : (string * int) list;  (** merged over domains, sorted *)
  per_domain : (string * (int * int) list) list;
      (** for each counter with a nonzero value: [(domain id, value)]
          per contributing domain, in domain order — the per-domain
          busy-time breakdown of the pool reads from here *)
  gauges : (string * int) list;
  histograms : (string * (int * int) list) list;
      (** nonempty buckets as [(inclusive upper bound, count)]; the
          unbounded top bucket reports upper bound [max_int] *)
  spans : (string * span_stat) list;
}

val snapshot : unit -> snapshot
(** Merge every sink (including sinks of domains that have since
    exited).  Accurate once the instrumented parallel work has been
    joined — the pool's batch completion provides the needed
    happens-before; a snapshot taken {e while} foreign domains are
    still writing may miss their latest increments but never tears a
    value. *)

val counter_value : snapshot -> string -> int
(** 0 when absent. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable stats block: one aligned line per counter, gauge,
    histogram and span (durations scaled to us/ms/s). *)

(** {1 JSON and traces} *)

(** A minimal JSON abstract syntax, printer and parser — enough to emit
    Chrome [trace_event] documents and metric blocks, and to round-trip
    them in tests, without an external dependency.  Printing is
    deterministic (object fields in construction order); parsing
    accepts the full JSON grammar with integer/float distinction kept
    via the [Int] vs [Float] constructors. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** [Error msg] carries a character offset and description. *)

  val equal : t -> t -> bool
  (** Structural, with object field {e order} significant — exactly
      what a print/parse round-trip preserves. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

val trace_document : unit -> Json.t
(** The recorded span events as a Chrome [trace_event] JSON document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}], one [ph = "X"]
    complete event per traced span execution with [ts]/[dur] in
    microseconds (rebased so the earliest event starts at 0), [pid]
    fixed at 1 and [tid] the OCaml domain id.  Load it in Perfetto or
    [chrome://tracing].  See doc/OBSERVABILITY.md for the schema. *)

val write_trace : string -> unit
(** {!trace_document} written to a file. *)
