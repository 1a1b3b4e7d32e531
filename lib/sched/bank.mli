(** A bank of dKiBaM batteries — the stateful half of the discharge
    kernel.

    Encapsulates the battery states and death flags that the simulator,
    the optimal search and the analysis layer all used to maintain by
    hand: concurrent recovery ([tick_all]), the fatal-draw observation
    rule of paper eq. (8) ([draw_from]), death bookkeeping, and the
    canonical serving loop over a {!Loads.Cursor.schedule} ([serve]).
    Banks are mutable; the optimal search snapshots them with {!copy}
    at every branch point.

    {b Layout.}  A bank is one flat [int array] of four ints per
    battery — battery [i] at [4 * i]: [n_gamma], [m_delta],
    [recov_clock], and [1] if dead else [0] — plus one scratch
    {!Dkibam.Kernel.cell} on which every transition runs, so the
    dKiBaM recurrences stay in {!Dkibam.Kernel} alone.  That block is
    also the memo key's block ({!key}), so the key and the bank cannot
    drift apart.  {!copy} is one array copy and a fresh scratch cell;
    {!serve} and {!tick_all} build no {!Dkibam.Battery.t}; hot readers
    ({!Bound}, the key) read ints through {!n_gamma}, {!m_delta},
    {!recov_clock} and {!is_dead}.  {!battery}, {!snapshot} and
    {!alive} box on demand, for the simulator and the tests. *)

type t

val create :
  ?initial:Dkibam.Battery.t array ->
  n_batteries:int ->
  Dkibam.Discretization.t ->
  t
(** [initial] defaults to [n_batteries] full batteries; its length must
    equal [n_batteries].  The array is copied. *)

val of_parts :
  Dkibam.Discretization.t ->
  batteries:Dkibam.Battery.t array ->
  dead:bool array ->
  t
(** Re-assemble a bank from explicit state (both arrays are copied);
    lengths must agree. *)

val copy : t -> t
(** An independent bank: no state is shared with the source. *)

val disc : t -> Dkibam.Discretization.t
val size : t -> int

val n_gamma : t -> int -> int
(** Battery [i]'s remaining charge units. *)

val m_delta : t -> int -> int
(** Battery [i]'s height-difference units. *)

val recov_clock : t -> int -> int
(** Battery [i]'s recovery clock. *)

val battery : t -> int -> Dkibam.Battery.t
(** Battery [i]'s state, boxed. *)

val snapshot : t -> Dkibam.Battery.t array
(** A fresh copy of the battery states, by id. *)

val is_dead : t -> int -> bool

val alive : t -> int list
(** Ids not yet observed empty, ascending. *)

val any_alive : t -> bool
val all_dead : t -> bool

val tick_all : t -> int -> unit
(** Advance every battery (dead ones keep recovering, paper §4.3) by
    [k] steps of pure recovery. *)

val draw_from : t -> int -> cur:int -> bool
(** [draw_from t b ~cur]: battery [b] serves one draw of [cur] units.
    Returns [true] — and marks [b] dead — when the draw is fatal: the
    battery either lacks the charge units or satisfies the emptiness
    test of eq. (8) immediately after the draw. *)

val stranded : t -> int
(** Total charge units still held across the bank ([sum n_gamma]). *)

val stranded_units : Dkibam.Battery.t array -> int
(** Same, over a bare battery array (e.g. a simulator outcome). *)

val key : t -> head:int -> int array
(** [key t ~head]: a fresh array of [head] zeros (for the caller's
    position fields) followed by the bank's four-int blocks sorted
    ascending — the canonical form of the battery multiset that the
    optimal search memoizes on.  The order is lexicographic over
    [(n_gamma, m_delta, recov_clock, dead)], the order polymorphic
    [compare] gives those tuples, so the bytes match keys built by
    sorting tuples.  Allocates the result only. *)

(** {2 The serving loop} *)

type serve_outcome =
  | Completed  (** the span was served to its end, trailing rest included *)
  | Died of int
      (** the serving battery was observed empty at the draw landing this
          many steps after the span's first step; the trailing steps have
          {e not} been ticked — hand-over timing is the driver's call *)

val serve :
  ?cache:Dkibam.Span_cache.t -> t -> b:int -> Loads.Cursor.schedule ->
  serve_outcome
(** [serve t ~b sch]: battery [b] serves the span described by [sch] —
    for each scheduled draw, the whole bank recovers [sch.ct] steps and
    [b] serves the draw as in {!draw_from}; after the last draw the bank
    recovers the trailing [sch.rest].  Runs as one
    [Dkibam.Kernel.serve] call for [b] plus one recovery jump per other
    battery, so a span costs O(batteries + draws) with no per-draw
    allocation.  A caller that must observe states inside a span
    (trace sampling) cuts it into sub-spans of the same schedule
    type.

    [cache] answers [b]'s kernel call from a {!Dkibam.Span_cache}
    (the other batteries' recovery jumps are never cached); the
    outcome is the same.  It must serve this bank's discretization
    ([Invalid_argument] otherwise).  Only the planner's window
    segments pass one: its windows repeat spans across decisions,
    while the exact search and the simulator rarely do. *)
