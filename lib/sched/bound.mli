(** Admissible per-position bounds for the optimal search (branch and
    bound).

    From a decision point [(y, local, bank)] of {!Optimal}'s search tree,
    three quantities can be bounded from the KiBaM physics alone, without
    exploring a single continuation:

    - {!lifetime_ub} — {b no} continuation can keep the system alive past
      this step.  Derivation: the total charge in all wells of the alive
      batteries ([sum n_gamma]) caps the units any schedule can serve —
      recovery only moves charge between wells, it never refills the
      total — while the load's epoch grid fixes, in absolute time, the
      {e fewest} units any continuation must have served by each step
      (cadence restarts after a death and the optional final-draw skip
      can only lose draws, and each of the at most [A] remaining deaths
      loses at most [switch_delay + 2] draws).  The first step whose
      minimum cumulative demand exceeds supply plus that slack is
      unreachable alive; this deliberately ignores the rate-capacity
      penalty (eq. (8) can kill a battery with charge still bound), so
      the bound is admissible.
    - {!lifetime_lb} — {b every} continuation keeps the system alive to
      at least this step.  Derivation: a draw of [cur] units lowers a
      battery's available charge by exactly [1000·cur] milli-units
      (recovery only raises it) and lowers its total charge by at most
      [cur], so killing battery [i] takes at least [d_i] draws; the
      system's last death therefore needs at least [sum d_i] draw events,
      and no execution's [k]-th draw can land before the cadence grid's
      [k]-th draw (restarts and skips only delay events).
    - {!stranded_lb} — {b every} continuation strands at least this much
      charge.  Derivation: dead batteries' total charge is frozen (the
      bound-well drain limit already stopped them), and the alive
      batteries can serve at most the canonical remaining demand.

    All three are monotone in the obvious direction under adding charge
    and invariant under permuting identical batteries — both properties
    are asserted in the test suite, together with admissibility along
    full search traces.  {!Optimal} composes them into objective-specific
    score bounds; results with pruning on are bit-identical to pruning
    off because only subtrees the bound proves dominated are cut. *)

type t
(** Precomputed views of one load, built once per search: suffix arrays
    (minimum residual demand, residual draw counts, maximum residual
    draw current) and the availability bound's hull tree.  Building
    costs O(E log E) time and O(E log E) words for a load of [E]
    epochs.  A query costs O(batteries + log^2 E): {!lifetime_lb} and
    {!stranded_lb} bisect or index the suffix arrays in O(log E), and
    {!lifetime_ub}'s availability constraint ({!avail_ub}) descends the
    hull tree.  A load whose step and unit totals could overflow the
    tree's integer products, or a query whose gain slope could, falls
    back to scanning the remaining epochs — O(E), with the same
    value. *)

val create :
  ?switch_delay:int ->
  ?allow_final_draw_skip:bool ->
  ?hull_tree:bool ->
  Dkibam.Discretization.t ->
  Loads.Cursor.t ->
  t
(** Defaults mirror {!Optimal.search}: [switch_delay = 1],
    [allow_final_draw_skip = false].  The flags matter: the skip widens
    the demand envelope (each epoch may serve one draw less), the delay
    sizes the per-death draw-loss slack.  [hull_tree] (default [true])
    builds the availability bound's hull tree; with [false] the
    O(E log E) build is skipped and {!avail_ub} and {!lifetime_ub}
    scan the remaining epochs instead, with the same values — for a
    caller that asks only {!lifetime_lb}, as the Horizon planner's
    windows do. *)

val infinite : int
(** Sentinel for "no finite bound": the batteries cannot be forced dead
    ({!lifetime_ub}) or cannot be killed ({!lifetime_lb}) within the
    load.  Strictly larger than any step of any load, safely addable. *)

val lifetime_ub : t -> y:int -> local:int -> Bank.t -> int
(** Latest step any continuation from this position can die at, or
    {!infinite} when some continuation might outlive the load. *)

val avail_ub : t -> y:int -> local:int -> Bank.t -> int
(** The availability constraint of {!lifetime_ub} alone: one step before
    the first draw at which the minimum cumulative demand outruns the
    alive batteries' available charge (each counted at no less than 0)
    plus their maximal recovery gain (and the per-death slacks), or
    {!infinite}.  {!lifetime_ub} is the
    minimum of this and the total-charge constraint.

    For the epochs after [y] the test "demand at epoch [e]'s last draw
    outruns supply" reads [A_e - g*T_e > C], with the load's points
    [(T_e, A_e)] fixed and the slope [g] and constant [C] set by the
    bank; a segment tree of upper convex hulls over the points finds
    the first epoch above that line in O(log^2 E), in exact integer
    arithmetic, and the epoch's own division then pins the crossing
    draw.  The value is exactly that of scanning every remaining epoch
    in order. *)

val lifetime_lb : t -> y:int -> local:int -> Bank.t -> int
(** Earliest step any continuation from this position can die at, or
    {!infinite} when no continuation can die within the load. *)

val stranded_lb : t -> y:int -> local:int -> Bank.t -> int
(** Minimum charge units ([sum n_gamma], dead batteries included) any
    continuation leaves stranded at system death. *)
