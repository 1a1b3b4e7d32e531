(** The all-integer dKiBaM transition arithmetic — the numeric core
    shared by the boxed scalar path ({!Battery}, [Sched.Bank]) and the
    struct-of-arrays batch engine ([Batch.Engine]).

    A battery's dynamic state is three integers: [n] remaining charge
    units, [m] height-difference units, [clock] steps since the last
    recovery event (the TA clock [c_recov]).  {!Battery} wraps them in
    an immutable record; the batch engine keeps them in flat per-lane
    arrays.  Both load them into a {!cell} and express every transition
    through this module, so the two paths execute {e the same}
    recurrences and cannot drift — the bit-identity contract of the
    batch engine rests on it.

    Every function here updates its cell in place and allocates
    nothing. *)

type cell = { mutable n : int; mutable m : int; mutable clock : int }
(** One battery's state, as scratch space for the transitions below. *)

val tick : Discretization.t -> cell -> int -> unit
(** [tick d c steps] advances [c] by [steps] time steps of pure
    recovery.  Runs in O(number of recovery events), jumping from event
    to event: while [m >= 2] each recovery is due
    [max 1 (recov_time m - clock)] steps ahead (an already-overdue
    recovery — possible for hand-built states — fires on the next step)
    and resets the clock; below [m = 2] the remaining steps only age the
    clock.  [n] is untouched.  Raises [Invalid_argument] when [steps] is
    negative.

    Recovery composes: [tick d c a; tick d c b] leaves [c] exactly as
    [tick d c (a + b)] does, overdue states included — the event due
    [r] steps ahead is still due [r - a] steps ahead after [a < r]
    steps, and an overdue one fires on the first step either way. *)

val draw : Discretization.t -> cell -> cur:int -> unit
(** [draw d c ~cur] applies one [use_charge] event of [cur] units: the
    recovery clock resets exactly when recovery was not already running
    ([m <= 1] before the draw), then [n -= cur], [m += cur], and an
    already-due recovery fires immediately at the same instant (the
    settle rule).  Unchecked: callers validate [cur >= 1] and
    [n >= cur] first — {!Battery.draw} raises, {!serve} treats the
    shortfall as the fatal-draw observation. *)

val serve :
  Discretization.t -> cell -> ct:int -> cur:int -> draws:int -> rest:int -> int
(** [serve d c ~ct ~cur ~draws ~rest] serves one draw schedule (a
    [Loads.Cursor.schedule]) with the battery in [c]: [draws] times,
    {!tick} [ct] steps then {!draw} [cur] units, and after the last
    draw {!tick} the trailing [rest].  Returns [0] when the span
    completes, or the index [i] (1-based) of the fatal draw — the first
    draw the battery lacks the units for (its state is left as ticked)
    or after which it is empty by eq. (8).  A fatal draw ends the span:
    the steps after it are {e not} ticked.

    The other batteries of a bank take no part in a span — recovery of
    one battery never depends on another — so a caller advances each of
    them once, by {!elapsed} steps, with a single {!tick}; by the
    composition law above that is exactly the per-draw interleaving of
    the paper's network. *)

val elapsed : ct:int -> draws:int -> rest:int -> int -> int
(** [elapsed ~ct ~draws ~rest r]: the steps a span took, given
    {!serve}'s result [r] — the whole span ([draws * ct + rest]) when
    [r = 0], up to the fatal draw ([r * ct]) otherwise. *)

val is_empty : Discretization.t -> n:int -> m:int -> bool
(** Paper eq. (8) on raw state — alias of {!Discretization.is_empty}. *)

val available_milli : Discretization.t -> n:int -> m:int -> int
(** Available charge in milli-units — alias of
    {!Discretization.available_milli_units}. *)
