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
    nothing.  {!serve} is the one entry point that holds the
    recurrences, and {!tick} and {!draw} are its one-segment cases.  It
    runs on the recovery timeline of {!Discretization} (T = C(m) −
    clock): it converts the cell to [T] once on entry and back once on
    exit, and in between [k] recovery steps are one subtraction and a
    draw, with its eq. (8) test, is one lookup in the table D_cur
    (the landing point and [M] of it, side by side).  A draw therefore
    costs O(1), whatever recovery it spans; the event loop it replaces
    pays one iteration per recovery event (one 6,144-trace Monte Carlo
    block schedules 1.98 M draws and fires 0.92 M recovery events:
    doc/PERFORMANCE.md, "What a search node costs").

    {!serve_events} is the same recurrences one recovery event at a
    time, as eq. (6) states them.  It stays, for the cases the timeline
    does not cover, and as the reference the timeline is tested
    against: {!serve} hands a span to it when the discretization's
    timeline is past {!Discretization.timeline_cap}, when [cur] is
    outside [1 .. Discretization.max_draw_cur] (and the span draws),
    for the first segment from a cell that is not on the timeline (a
    fresh [m = 0], an overdue or a negative clock), and for a span in
    which a draw would take [m] past [n_units], where the event loop
    raises [Invalid_argument] (and so does {!serve}, with the cell
    untouched). *)

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

    The recurrences: while [m >= 2] a recovery event is
    due [max 1 (recov_time m - clock)] steps ahead (an already-overdue
    recovery — possible for hand-built states — fires on the next
    step) and resets the clock; below [m = 2] the remaining steps only
    age the clock.  A draw resets the recovery clock exactly when
    recovery was not already running ([m <= 1] before it), then
    [n -= cur], [m += cur], and an already-due recovery fires at the
    same instant (the settle rule: [recov_time] shrinks as [m] grows).
    On the timeline these rules are [T − k] and D_cur; the results are
    the event loop's, bit for bit.

    Neither loop makes a call.  That is why eq. (8) appears twice
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

val serve_events :
  Discretization.t -> cell -> ct:int -> cur:int -> draws:int -> rest:int -> int
(** {!serve} one recovery event at a time: each segment jumps from
    event to event of eq. (6), so it costs O(recovery events).  Same
    contract and results as {!serve}, exceptions included. *)

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
