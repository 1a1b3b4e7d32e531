(** Vectorized batch execution of the discharge kernel.

    [run] advances thousands of independent (bank, load, policy) lanes
    through the dKiBaM discharge semantics in one call, with every
    lane's dynamic state in the flat struct-of-arrays planes of
    {!State.t} (one allocation per batch) and every battery transition
    going through [Dkibam.Kernel] — the exact arithmetic of the scalar
    [Sched.Bank] path, so batched lifetimes and stranded charge are
    {e bit-identical} to [Sched.Simulator] on every load and policy
    (asserted load-by-load in [test/test_batch.ml]).

    What this engine intentionally does {e not} produce: traces,
    per-death bookkeeping, serving intervals, or [Custom] policy
    callbacks — those stay on the scalar path ([Sched.Simulator] falls
    back to it automatically).  Lanes are fully independent: results
    are invariant under any permutation of the lane array.

    Observability: each call bumps [batch.batches], [batch.lanes] and
    [batch.steps] (battery-steps simulated; every span of [k] time
    steps served or idled adds [k * n_batteries]). *)

(** The batchable policies (the engine-level mirror of the scalar
    simulator's policy type, minus [Custom] closures). *)
type policy =
  | Sequential  (** lowest-numbered alive battery *)
  | Round_robin  (** cyclic cursor, dead batteries skipped *)
  | Best_of  (** highest available charge, earliest id on ties *)
  | Fixed of int array
      (** replay: entry [k] at the [k]-th scheduling point when it
          names an alive battery, best-of otherwise *)

type lane = { load : int  (** index into [loads] *); policy : policy }
(** One simulation request: which compiled load, under which policy. *)

val run :
  ?switch_delay:int ->
  n_batteries:int ->
  Dkibam.Discretization.t ->
  loads:Loads.Cursor.compiled array ->
  lanes:lane array ->
  State.t
(** [run ~n_batteries disc ~loads ~lanes] simulates every lane to its
    lifetime (or to the end of its load) and returns the final batch
    state; read results out with {!State.lifetime_steps} and
    {!State.stranded}.  Every lane starts from [n_batteries] full
    batteries.  [switch_delay] (default 1) is the hand-over delay of
    [Sched.Simulator.simulate].  Compiled loads are shared read-only
    across lanes and batches — compile once with
    [Loads.Cursor.compile], fan out freely (including across domains).
    Raises [Invalid_argument] on a negative [switch_delay] or an
    out-of-range lane load index. *)
