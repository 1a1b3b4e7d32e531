(** Receding-horizon scheduling: near-optimal decisions at simulator
    cost (doc/PLANNING.md).

    Between the fixed heuristics ({!Policy.Best_of} and friends) and the
    exhaustive {!Optimal.search} — which is exact but blows up past ~60
    jobs — sits the classic planning compromise (Fox, Long & Magazzeni's
    plan-based battery policies): at every scheduling point, search the
    next [k] jobs {e exactly} with the {!Optimal.plan} machinery
    (the exact search's memoized core over the truncated load suffix),
    score the window frontier with the admissible
    pooled-recovery lower bound {!Bound.lifetime_lb}, commit only the
    first battery assignment, and re-plan at the next decision point.
    Because the terminal value is a {e lower} bound, every committed
    choice carries a survival certificate — the policy never chases an
    outcome the physics cannot deliver — and with [k >=] the number of
    jobs the window covers the whole load, making the policy bit-identical
    to the exact search (asserted over the Table 5 loads in
    [test/test_horizon.ml]).

    The returned value is an ordinary {!Policy.Custom}, so it composes
    with everything that takes a policy: {!Simulator.simulate} consults
    it per decision, {!Simulator.run_batch} lanes fall back to the
    scalar path for it, and {!Ensemble.run} ([?extra_policies]) and
    {!Montecarlo.run} ([?policies]) accept it by name.  It is
    load-agnostic — planning state is built per run from the
    {!Policy.decision_context}'s cursor and cached in domain-local
    storage (no locks, no cross-run reuse), so one policy value can
    serve a whole Monte Carlo fleet deterministically at any [--jobs].

    Observability: with [Obs] enabled, [horizon.plans] counts lookahead
    searches, [horizon.replans] the mid-job subset (deaths force an
    unscheduled re-plan), and [horizon.budget_trips] the plans answered
    by the fallback heuristic; see doc/OBSERVABILITY.md. *)

type fallback =
  | Best_of
      (** answer a budget-tripped decision with {!Policy.best_of} — the
          fullest alive battery (the default) *)
  | Round_robin
      (** answer it with the cyclic choice derived from the job index
          alone — stateless, so deterministic across lanes and pools *)

val policy :
  ?switch_delay:int ->
  ?shared:Memo.scope ->
  ?budget_segments:int ->
  ?fallback:fallback ->
  k:int ->
  unit ->
  Policy.t
(** [policy ~k ()]: plan [k >= 1] jobs ahead at every scheduling point.
    [switch_delay] must match the simulation it runs under (default 1,
    as everywhere).  Window searches ask no upper bound, so
    [BATSCHED_NO_BOUNDS] does not reach them.  [shared] backs the
    per-run planner memo with a process-wide {!Memo} scope, which the
    planner narrows by its own load, discretization and switch delay
    (see {!Optimal.planner}), so one scope may serve every load —
    window values are exact, so warmth from other runs or domains
    changes only the work, never a decision.  [budget_segments] caps
    the work of each single decision ([Guard.Budget], one unit per
    window segment, whether the span cache answers it or not) — a
    segment-count cap trips at deterministic points, so the fallback
    decisions are reproducible bit-for-bit {e given the same memo
    warmth}; on a trip the decision falls back to [fallback].  Plans
    that memoize only positions with three or more jobs left
    ({!Optimal.plan}) run more segments than plans that memoized every
    position, so a given budget trips earlier than it did for those:
    a budgeted decision may fall back where it once did not.
    Unbudgeted decisions are the same.  The
    policy raises [Invalid_argument] under a driver that supplies no
    load cursor (see {!Policy.decision_context}). *)

val name : ?budget_segments:int -> k:int -> unit -> string
(** Display label for reports and benches: ["horizon-3"],
    ["horizon-3(budget 500)"]. *)
