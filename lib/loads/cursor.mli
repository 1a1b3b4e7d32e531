(** Step-accurate iteration over a load encoding — the shared half of the
    discharge kernel.

    Every engine in the repository (the single-battery dKiBaM replay, the
    multi-battery simulator, the optimal-search segment runner, the
    TA-KiBaM search heuristic) walks the same epoch/cadence structure: a
    job epoch of [len] steps with cadence [ct] contains [len / ct] draws
    of [cur] charge units, each due after [ct] recovery steps, followed by
    [len mod ct] trailing rest steps; the cadence clock restarts at every
    epoch start and at every mid-job switch-on.  A cursor precomputes that
    arithmetic for every epoch once, at construction, so that hot loops
    (notably the branch-and-bound optimal search, which revisits epochs
    thousands of times) never redo the division — and so that the cadence
    rules live in exactly one module. *)

type t
(** An iterable view of a {!Arrays.t}, with per-epoch draw schedules
    precomputed at construction. *)

val make : Arrays.t -> t
(** [make arrays] precomputes absolute epoch starts and the full-epoch
    draw schedule of every epoch.  O(number of epochs). *)

val arrays : t -> Arrays.t
(** The encoding this cursor iterates. *)

(** {2 Epoch geometry} *)

val epoch_count : t -> int
(** Number of epochs in the load. *)

val epoch_start : t -> int -> int
(** Absolute time step at which epoch [y] begins. *)

val epoch_end : t -> int -> int
(** Absolute time step at which epoch [y] ends ([load_time.(y)]). *)

val epoch_len : t -> int -> int
(** Length of epoch [y] in time steps. *)

val total_steps : t -> int
(** Absolute step at which the load ends. *)

val is_idle : t -> int -> bool
(** True when epoch [y] draws no charge ([cur = 0]).  A job epoch whose
    cadence exceeds its length is {e not} idle — it is a scheduling point
    that happens to contain no draw. *)

val job_count : t -> int
(** Number of non-idle epochs (precomputed schedules with draws). *)

(** {2 Draw schedules}

    The cadence arithmetic, in one place.  A schedule describes a span of
    a job epoch served with the cadence clock restarted at the span's
    first step: [draws] full draws of [cur] units, each due [ct] steps
    after the previous event, then [rest] trailing steps without a
    draw. *)

type schedule = {
  ct : int;  (** steps between consecutive draws *)
  cur : int;  (** charge units per draw; 0 for idle epochs *)
  draws : int;  (** draws that fit in the span *)
  rest : int;  (** trailing steps after the last draw *)
}

val schedule : t -> int -> schedule
(** [schedule t y]: the full-epoch schedule of epoch [y], precomputed at
    construction.  Idle epochs get [draws = 0], [rest = len]. *)

val schedule_from : ?skip_final:bool -> t -> int -> local:int -> schedule
(** [schedule_from t y ~local]: the schedule of epoch [y] restarted at
    offset [local] (a mid-job switch-on: the cadence clock resets, so
    [draws = (len - local) / ct]).  [local = 0] returns the precomputed
    full-epoch schedule.

    [skip_final] elides a draw that would land exactly on the epoch's
    last step — the go_off/use_charge race the published TA leaves open
    (see {!Sched.Optimal}): the final draw is dropped and its cadence
    interval becomes rest. *)

val max_draw_units_within : t -> int -> steps:int -> int
(** [max_draw_units_within t y ~steps]: an upper bound on the charge
    units epoch [y] can still draw in its remaining [steps] steps,
    whatever the cadence phase: [steps / ct * cur].  Used by admissible
    search heuristics. *)

val draw_units : t -> int -> int
(** Total charge units drawn by epoch [y]'s full schedule
    ([draws * cur]). *)

val draw_units_after : t -> int -> int
(** Charge units drawn by epochs [y+1 .. end] — the suffix dot-product
    of the encoding, precomputed at construction. *)

(** {2 Compiled flat schedules}

    The cursor's precomputed per-epoch draw schedules, exported as bare
    parallel [int array]s — the read-only load layout the
    struct-of-arrays batch engine ([Batch.Engine]) iterates with unsafe
    accesses.  The cursor itself stays the scalar path's iterator; a
    compiled view adds nothing to the semantics: entry [y] holds the
    fields of [schedule t y] (see {!schedule}).  The arrays are shared,
    never copied — [c_ct] and [c_cur] are the encoding's own
    [cur_times] and [cur] — so treat them as read-only. *)

type compiled = private {
  c_starts : int array;  (** absolute step of each epoch's first step *)
  c_lens : int array;  (** epoch lengths in steps *)
  c_ct : int array;  (** steps between consecutive draws *)
  c_cur : int array;  (** charge units per draw; 0 for idle epochs *)
  c_draws : int array;  (** full draws in the whole epoch *)
  c_rest : int array;  (** trailing steps after the last full draw *)
  c_total : int;  (** absolute step at which the load ends *)
}

val max_compiled_steps : int
(** Ceiling on every step counter derivable from a compiled schedule
    ([max_int / 4]): absolute steps, per-epoch draw offsets and
    per-epoch drawn units all stay below it, so consumers can add and
    multiply them without a silent wrap. *)

val compile_arrays : Arrays.t -> (compiled, Guard.Error.t) result
(** [compile_arrays a] is [compile (make a)] without the cursor: one
    pass over the encoding fills the six arrays, so a batch consumer
    that never iterates the load ([Sched.Simulator.run_batch]) does not
    build a {!t} only to flatten it. *)

val compile : t -> (compiled, Guard.Error.t) result
(** [compile t]: the cursor's own flat schedules, checked.  Loads
    whose total step count exceeds {!max_compiled_steps}, or whose
    per-epoch [draws * cur] product would overflow it, are rejected
    with a structured error instead of wrapping — batch consumers
    either get arrays they can trust or a {!Guard.Error.t} naming the
    offending field. *)

val compile_exn : t -> compiled
(** [compile] or raise {!Guard.Error.Error}. *)

(** {2 Event iteration}

    A pure pull-iterator over the load's event structure.  The event
    stream of a job epoch with schedule [{ct; cur; draws; rest}] is
    [(Idle ct, Draw cur)] repeated [draws] times, then [Idle rest] when
    [rest > 0], then [Epoch_end]; an idle epoch yields [Idle len] then
    [Epoch_end].  [Idle] spans are time; [Draw] and [Epoch_end] are
    instantaneous. *)

type event =
  | Idle of int  (** advance this many steps of pure recovery *)
  | Draw of int  (** draw this many charge units, now *)
  | Epoch_end  (** epoch boundary (bookkeeping only) *)

type pos
(** An immutable position in the event stream. *)

val start : t -> pos
(** The position before the first event. *)

val next : t -> pos -> (event * pos) option
(** The event at the position, and the position after it; [None] once
    the load is exhausted. *)

val step : t -> pos -> int
(** Absolute time step at a position.  Since [Draw] is instantaneous,
    the step after a [Draw] event is the instant of the draw itself. *)

val epoch : t -> pos -> int
(** Epoch index a position lies in; [epoch_count] at the end. *)
