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
    nothing.  {!serve} is the one loop that holds the recurrences:
    recovery and the [use_charge] edge are each written once, inside
    it, and {!tick} and {!draw} are its one-segment cases. *)

type cell = { mutable n : int; mutable m : int; mutable clock : int }
(** One battery's state, as scratch space for the transitions below. *)

val serve :
  Discretization.t -> cell -> ct:int -> cur:int -> draws:int -> rest:int -> int
(** [serve d c ~ct ~cur ~draws ~rest] serves one draw schedule (a
    [Loads.Cursor.schedule]) with the battery in [c]: [draws] segments
    of [ct] recovery steps then a draw of [cur] units, then one segment
    of [rest] recovery steps.  Returns [0] when the span completes, or
    the index [i] (1-based) of the fatal draw — the first draw the
    battery lacks the units for (its state is left as ticked) or after
    which it is empty by eq. (8).  A fatal draw ends the span: the
    steps after it are {e not} ticked.  Raises [Invalid_argument] when
    [ct], [draws] or [rest] is negative, before touching [c].

    Recovery jumps from recovery event to recovery event, so a segment
    costs O(number of recovery events), not O(steps): while [m >= 2]
    each recovery is due [max 1 (recov_time m - clock)] steps ahead (an
    already-overdue recovery — possible for hand-built states — fires
    on the next step) and resets the clock; below [m = 2] the remaining
    steps only age the clock.  A draw resets the recovery clock exactly
    when recovery was not already running ([m <= 1] before it), then
    [n -= cur], [m += cur], and an already-due recovery fires at the
    same instant (the settle rule: [recov_time] shrinks as [m] grows).

    The loop makes no call.  That is why eq. (8) appears a second time
    here, written out next to its definition in
    {!Discretization.is_empty}: dune's dev profile, which the benchmark
    builds with, compiles with [-opaque], so no call across a module
    boundary is inlined, and calling [Discretization.is_empty] once per
    draw gave back more than half of the loop's gain over the earlier
    per-draw [tick]/[draw]/[is_empty] calls (doc/PERFORMANCE.md, "One
    numeric core").

    The other batteries of a bank take no part in a span — recovery of
    one battery never depends on another — so a caller advances each of
    them once, by {!elapsed} steps, with a single {!tick}; by the
    composition law below that is exactly the per-draw interleaving of
    the paper's network. *)

val tick : Discretization.t -> cell -> int -> unit
(** [tick d c steps] advances [c] by [steps] time steps of pure
    recovery: {!serve} with no draw and [rest = steps].  [n] is
    untouched.  Raises [Invalid_argument] when [steps] is negative.

    Recovery composes: [tick d c a; tick d c b] leaves [c] exactly as
    [tick d c (a + b)] does, overdue states included — the event due
    [r] steps ahead is still due [r - a] steps ahead after [a < r]
    steps, and an overdue one fires on the first step either way. *)

val draw : Discretization.t -> cell -> cur:int -> unit
(** [draw d c ~cur] applies one [use_charge] event of [cur] units at
    once: {!serve} with one draw, [ct = 0] and [rest = 0], its result
    dropped.  Callers validate [cur >= 1] and [n >= cur] first —
    {!Battery.draw} raises — and test eq. (8) themselves; a draw the
    battery lacks the units for leaves [c] as it was. *)

val elapsed : ct:int -> draws:int -> rest:int -> int -> int
(** [elapsed ~ct ~draws ~rest r]: the steps a span took, given
    {!serve}'s result [r] — the whole span ([draws * ct + rest]) when
    [r = 0], up to the fatal draw ([r * ct]) otherwise. *)

val is_empty : Discretization.t -> n:int -> m:int -> bool
(** Paper eq. (8) on raw state — alias of {!Discretization.is_empty}. *)

val available_milli : Discretization.t -> n:int -> m:int -> int
(** Available charge in milli-units — alias of
    {!Discretization.available_milli_units}. *)
