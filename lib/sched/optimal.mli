(** Optimal battery scheduling by exhaustive search (the Cora role).

    Computes the schedule that maximizes system lifetime for a given load
    — the "optimal" column of the paper's Table 5.  The search exploits
    the paper's own observation (§4.4) that the TA-KiBaM is fully
    deterministic between scheduling points: from each decision point
    (job start, or mid-job hand-over after a battery death) and battery
    choice, the system evolves deterministically to the next decision
    point, so the search tree branches only over the
    [B^(number of decisions)] battery choices.  Pruning comes from two
    sources.  Memoization over (position, canonical battery multiset):
    identical batteries make many choice orders confluent, so whole
    subtrees collapse onto already-solved positions ([stats.pruned]
    counts those hits).  And branch-and-bound cuts from the admissible
    KiBaM charge bounds of {!Bound}: a child whose score upper bound
    cannot beat the best sibling value found so far — seeded per node by
    an achievable floor, and at the root by one best-of-two policy run
    (the incumbent) — is dropped unexplored ([stats.bound_cuts] counts
    those).  Bounds only ever cut subtrees they prove dominated, so the
    returned lifetime, stranded charge and schedule are bit-identical
    with bounds on or off (asserted in the differential test suite);
    memo entries stay exact subtree values in both modes, which keeps
    the parallel root fan-out and checkpoint resume trivially correct.
    Bounds are on by default; pass [~bounds:false] (or export
    [BATSCHED_NO_BOUNDS=1]) for the unpruned A/B reference —
    see doc/PERFORMANCE.md.

    {!search} and the receding-horizon planner's {!plan} run one
    depth-first core: the exact search is a plan whose window frontier
    lies past the end of the load, scored by the objective instead of
    by lifetime, with every node seeded by its achievable floor.  Its
    serial root, its pooled root branches, its schedule replay and the
    planner's root choice all step through that core, so the two
    searches break ties identically; a plan asks fewer questions of it
    (see {!plan}), which changes its work and never its values.

    The hand-over semantics (including the one-step switch delay) are
    exactly those of {!Simulator}, so an optimal schedule replayed through
    {!Simulator.simulate} with [Policy.Fixed] reproduces the same
    lifetime — asserted in the test suite.

    Observability: with [Obs] enabled a search records the
    [optimal.searches] / [optimal.positions] / [optimal.segments] /
    [optimal.memo_hits] / [optimal.memo_misses] /
    [optimal.bound_cuts] counters (all but the miss count mirror
    {!stats} exactly — asserted in the test suite), the
    [optimal.depth] histogram and the [optimal.search] /
    [optimal.branch] spans; see doc/OBSERVABILITY.md.  Results are
    bit-identical with observability on or off. *)

type objective =
  | Max_lifetime  (** maximize the last battery's death time (default) *)
  | Min_stranded
      (** minimize the charge left at death — the paper's actual Cora
          objective (§4.3); the two coincide on the test loads but can
          diverge when hand-over cadence resets waste draws *)
  | Min_lifetime
      (** the {e pessimal} schedule — used to check the paper's §6 claim
          that sequential scheduling "is actually the worst possible way
          to schedule the batteries" *)

(** {2 Budgets, anytime results and checkpoints}

    A search given a {!Guard.Budget.t} checks it cooperatively — one
    charge per simulated segment, one note per stored position — and on
    exhaustion returns the best {e feasible} schedule it can prove
    instead of raising: the best fully-evaluated first-decision branch
    (an exact subtree value, replayed from the memo), floored by one
    best-of-two policy simulation.  The result's {!status} says which.
    A budget with ample bounds never trips and the result is
    bit-identical to an unbudgeted search (asserted over the Table 5
    loads in the test suite).  See doc/ROBUSTNESS.md. *)

type fallback =
  | Search_prefix
      (** the schedule comes from the best completed first-decision
          branch of the truncated search — it scored at least as well
          as the policy floor *)
  | Policy_floor
      (** no completed branch beat (or existed to beat) the best-of-two
          simulation; its schedule is returned *)

type exhaustion = { trip : Guard.Budget.trip; fallback : fallback }

type status =
  | Optimal  (** the search completed; the schedule is exactly optimal *)
  | Budget_exhausted of exhaustion
      (** the budget tripped; the schedule is feasible and scores at
          least as well as the best-of-two policy, but optimality is
          not proven *)

type checkpoint = {
  path : string;  (** snapshot file, written atomically *)
  every_segments : int;  (** snapshot cadence, in simulated segments *)
  resume : bool;  (** preload [path] before searching, if it exists *)
}

val checkpoint : ?every_segments:int -> ?resume:bool -> string -> checkpoint
(** [checkpoint path] with a default cadence of 65536 segments and
    [resume = false].  [every_segments] must be [>= 1]. *)

type result = {
  lifetime_steps : int;  (** step of the last battery's fatal draw *)
  stranded_units : int;  (** charge units left when the last battery died *)
  schedule : int array;
      (** battery chosen at each scheduling point, in order — replayable
          with [Policy.Fixed] *)
  status : status;
      (** [Optimal] unless a budget tripped — see {!status} *)
  stats : stats;
}

and stats = {
  positions_explored : int;
      (** memo table size — distinct (decision point, battery multiset)
          positions solved.  With bounds off, identical between the
          serial and pooled searches: the per-branch tables union to
          the same set.  With bounds on the pooled search may solve
          more positions: its branches cut only against the fixed
          incumbent (never against values arriving from concurrent
          siblings, to keep cut decisions deterministic), so it prunes
          less than the serial loop — the results are still
          bit-identical, only the work differs. *)
  segments_run : int;
      (** deterministic segment simulations during the search (the
          replay's lookups are excluded).  Under [?pool] this exceeds
          the serial count: branches explored privately in two domains
          are simulated in both — redundancy is the price of sharing
          nothing. *)
  pruned : int;
      (** subtree explorations cut short by a memo hit — the §4.4
          confluence at work.  Counted per table, so the pooled search
          reports the sum over its private branch tables, not the
          serial figure. *)
  bound_cuts : int;
      (** subtrees dropped unexplored because their {!Bound} score upper
          bound could not beat an already-known sibling value (or, at
          the root, the best-of-two incumbent).  Distinct from [pruned]:
          a cut subtree was never simulated at all.  Always [0] with
          bounds off. *)
}

(** [initial] admits heterogeneous packs — e.g. a main cell plus a
    partially-sized backup: batteries of the same chemistry and charge
    unit but different remaining charge (build states with
    {!Dkibam.Battery.make}).  Defaults to [n_batteries] full batteries. *)

exception Load_too_short
(** The batteries outlived the load under some schedule; extend the
    load's horizon and retry. *)

(** [allow_final_draw_skip]: the published TA leaves a race open between
    a job's final draw (due exactly when the epoch ends) and the [go_off]
    synchronization; taking [go_off] first elides that draw, which an
    optimizer can exploit to keep a battery alive at the cost of not
    serving the job's last charge quantum.  {!Takibam.Optimal} inherits
    the race from the model; pass [true] here to mirror it (the
    cross-validation tests do), leave the default [false] for physically
    meaningful schedules that serve the whole load. *)

val search :
  ?pool:Exec.Pool.t ->
  ?budget:Guard.Budget.t ->
  ?checkpoint:checkpoint ->
  ?shared:Memo.t ->
  ?switch_delay:int ->
  ?objective:objective ->
  ?bounds:bool ->
  ?allow_final_draw_skip:bool ->
  ?initial:Dkibam.Battery.t array ->
  n_batteries:int ->
  Dkibam.Discretization.t ->
  Loads.Arrays.t ->
  result
(** Exhaustive optimal search.  Exponential in the number of scheduling
    decisions in the worst case (cf. paper §4.4) but heavily memoized
    over (decision point, battery multiset) — identical batteries make
    choice orders confluent; the paper's ten two-battery test loads each
    complete in well under a second.

    [bounds] arms the branch-and-bound layer (see the module comment);
    defaults to [true] unless the [BATSCHED_NO_BOUNDS] environment
    variable is set non-empty.  Results are bit-identical either way;
    only the work statistics ([segments_run], [positions_explored],
    [bound_cuts]) and the wall time change.

    [pool] explores the first-decision branches in parallel, one domain
    pool task per branch, each with a private memo table; the tables are
    merged before the schedule is reconstructed.  Because every memo
    entry is an {e exact} subtree value (never a bound), the merge is
    order-independent and the returned lifetime, stranded charge and
    schedule are identical to the serial search — asserted over all ten
    Table 5 loads in the test suite.  Only the work statistics differ
    (see {!stats}).

    [budget] bounds the work; on exhaustion the result carries
    [Budget_exhausted] and an anytime schedule (see the section above).
    A budget may be shared with other searches and with the pool — its
    first trip cancels them all promptly.  [Load_too_short] is still
    raised if even the fallback policy outlives the load.

    [checkpoint] snapshots the memo table to [checkpoint.path] every
    [every_segments] simulated segments and once more when the search
    phase ends, each time atomically; with [resume = true] a snapshot
    whose fingerprint matches these search inputs is preloaded, and the
    resumed search returns the same lifetime, stranded charge and
    schedule as an uninterrupted run (memo entries are exact, so a
    preload only converts misses into hits — [stats] reflect the work
    of this process only).  Entries are exact in both bound modes, so a
    snapshot written with bounds on resumes soundly with bounds off and
    vice versa; the snapshot magic is [sched.optimal.memo.v2], and a
    pre-bounds [v1] snapshot (or any other magic/fingerprint mismatch)
    raises {!Guard.Error.Error} rather than resuming from garbage.  A
    checkpointed search ignores [pool] and runs serially.

    [shared] plugs a process-wide {!Memo} store under the private memo
    table: lookups fall through to the store, and the exact values
    computed here are published back once the search ends with status
    [Optimal] — a pooled search's branches once the root settles — so
    a search a budget stops adds nothing to the store and cannot evict
    other searches' entries.  Entries are scoped by the same input
    fingerprint the checkpoint layer uses (plus a kind tag, so search
    and planner entries never collide).  Memo entries are exact subtree
    values independent of exploration order, bound mode and budget
    warmth, so sharing across concurrent searches — the daemon's worker
    domains — changes {e only} the work statistics; lifetime, stranded
    charge and the replayed schedule stay bit-identical, warm or
    cold.  Asserted by [test/test_memo.ml]. *)

val lifetime :
  ?pool:Exec.Pool.t ->
  ?budget:Guard.Budget.t ->
  ?switch_delay:int ->
  ?objective:objective ->
  ?bounds:bool ->
  ?allow_final_draw_skip:bool ->
  ?initial:Dkibam.Battery.t array ->
  n_batteries:int ->
  Dkibam.Discretization.t ->
  Loads.Arrays.t ->
  float
(** Optimal system lifetime in minutes ([search] composed with
    {!Dkibam.Discretization.minutes_of_steps}; [pool] and [budget] as in
    [search] — under a tripped budget this is the anytime lifetime). *)

val score_floor :
  objective -> Bound.t -> y:int -> local:int -> Bank.t -> int
(** The floor with bounds on {!search} seeds a position's value with:
    a score every continuation from [(y, local, bank)] reaches when it
    dies ([min_int] when none is known).  [Bound.t] must be built with
    the search's switch delay and final-draw-skip flag. *)

val score_ub : objective -> Bound.t -> y:int -> local:int -> Bank.t -> int
(** The admissible upper bound on the score at a position that
    {!search} cuts with ([max_int] when it cannot cut).  At a position
    with an alive battery it is never below {!score_floor}, since
    [Bound.lifetime_lb <= Bound.lifetime_ub] there; the search relies
    on it to skip this query for a child whose floor already beats the
    best sibling, or that has no sibling value yet — the query could
    not cut it.  Asserted in the test suite. *)

(** {2 Suffix planning with a terminal bound}

    The search core of the receding-horizon policy ({!Horizon}): the
    exact search's own memoized depth-first core, run over a {e window}
    of the load —
    from an arbitrary decision point up to a frontier epoch — with the
    admissible pooled-recovery lower bound of {!Bound.lifetime_lb} as
    the terminal value at the frontier.  Every window value is a death
    step some continuation provably reaches (or {!Bound.infinite} when
    survival past the load is proven), so committing the argmax choice
    is well-founded: the system is {e guaranteed} to be able to live at
    least [plan_value] steps after the commitment.  doc/PLANNING.md
    derives the construction.

    A plan does only the work a window can use.  It asks no upper
    bound, so it cuts nothing: window values are mostly terminal lower
    bounds, far below any death step an upper bound could name.  It
    memoizes only positions with at least three jobs left before the
    frontier.  And it serves each segment's battery through the
    domain's {!Dkibam.Span_cache}, which answers the spans the previous
    decision's window already served.  None of the three changes a
    value or a choice. *)

type planner
(** Per-load planning state: the cursor, the precomputed {!Bound}
    suffix views, and a memo table of exact window values shared across
    successive {!plan} calls (keyed by frontier, so re-plans at the same
    window reuse solved subtrees).  Not domain-safe: use one planner per
    domain, as {!Horizon} does. *)

val planner :
  ?switch_delay:int ->
  ?shared:Memo.scope ->
  Dkibam.Discretization.t ->
  Loads.Cursor.t ->
  planner
(** [planner disc cursor] precomputes the bound views of the load
    ([O(epochs)]).  [switch_delay] defaults to 1, matching {!search} and
    {!Simulator.simulate}.  [shared] backs the private window-value
    memo with a process-wide {!Memo} store: the planner narrows the
    scope it is given ({!Memo.narrow}) by a digest of its own load,
    the discretization's defining fields and the switch delay, so
    planners of different loads never read each other's values, while
    planners of the same load — concurrent daemon requests re-planning
    the same windows — share them and stay bit-identical. *)

type plan = {
  plan_choice : int;  (** the battery to commit at the planning point *)
  plan_value : int;
      (** certified value of that commitment: a step the system provably
          survives to under some continuation, or {!Bound.infinite} when
          it provably can outlive the load *)
}

val plan :
  ?budget:Guard.Budget.t ->
  planner ->
  frontier_epoch:int ->
  y:int ->
  local:int ->
  Bank.t ->
  plan option
(** [plan t ~frontier_epoch ~y ~local bank]: search every battery choice
    from decision point [(y, local, bank)] through all decisions in
    epochs [< frontier_epoch], scoring frontier positions with the
    terminal bound; first-maximum tie-breaking (lowest battery id), the
    same selection {!search}'s schedule replay makes — with the frontier
    past the load's last epoch the planned choice is exactly the optimal
    one.  [budget] is charged one unit per segment, whether the span
    cache answers it or not; [None] is returned if it trips mid-plan
    (entries memoized before the trip are exact and stay in the
    planner's private table; only a completed plan publishes its
    entries to the shared scope).  Raises [Invalid_argument] if
    [(y, local)] is not inside the load or no battery is alive.

    Observability: each plan adds its work to [horizon.segments],
    [horizon.positions], [horizon.memo_hits], [horizon.span_hits] and
    [horizon.span_misses] (doc/OBSERVABILITY.md). *)
