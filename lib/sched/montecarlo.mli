(** Monte Carlo fleet estimation: policy lifetime {e distributions}
    over sampled stochastic device traces.

    The paper compares policies on ten fixed traces; a fleet is random.
    [run] draws [samples] device traces from a stochastic load model
    ({!Stoch.Onoff} or {!Stoch.Env}), runs {e every} policy on {e
    every} trace (common random numbers, so policies are compared on
    paired samples), and reduces the lifetimes online into per-policy
    summaries: streaming mean/stddev ({!Stoch.Sketch.Moments}),
    percentile lifetimes ({!Stoch.Sketch.P2} — no per-lane retention,
    whatever the fleet size), death counts, optional
    P(death before [deadline_min]) and pairwise policy-dominance
    fractions, each with a 95% normal-approximation confidence
    interval.

    Execution rides {!Simulator.run_batch}: traces are processed in
    fixed-order blocks of [block] samples, each block one batched pass
    (the struct-of-arrays engine, fanned over [pool] when given, scalar
    fallback under [BATSCHED_NO_BATCH]).

    {b Determinism contract.}  Per-trace seeds are derived with
    {!Prng.Splitmix.split} from the root [seed] — lane [i]'s trace is a
    pure function of [(model, seed, i)] — and the reduction is a serial
    fold in sample order on the submitting domain.  Same [seed], same
    [samples], same [model] ⇒ bit-identical results, regardless of
    [pool] size, [block], chunking, or the batch/scalar choice
    (asserted in [test/test_stoch.ml]; see [doc/STOCHASTICS.md]).

    {b Censoring.}  A trace whose batteries outlive it has no death
    time; it is counted in [ps_survived] and enters the mean/quantile
    sketches at the trace's own horizon (a right-censored value).  With
    many censored lanes the mean and upper quantiles are conservative
    lower bounds — size the model's horizon so deaths dominate when the
    tail matters.

    {b Anytime cutoff.}  With a [budget], each completed sample charges
    one work unit ([Guard.Budget.charge_segments]) and the budget is
    checked between blocks: on a trip the driver stops and returns the
    fully-reduced prefix, with [mc_samples] telling how many samples
    the estimates reflect and [mc_tripped] why it stopped.  Count-based
    budgets trip at deterministic sample counts (block granularity);
    deadlines are wall-clock and hence machine-dependent. *)

type model = Onoff of Stoch.Onoff.t | Env of Stoch.Env.t
(** The stochastic load models the driver can sample from. *)

val model_name : model -> string
(** ["onoff"] or ["env"] — the [--model] spelling. *)

val sample_load : model -> seed:int64 -> Loads.Epoch.t
(** Draw one device trace from the model (dispatches to
    {!Stoch.Onoff.sample} / {!Stoch.Env.sample}). *)

val sample_arrays :
  model -> seed:int64 -> Dkibam.Discretization.t -> Loads.Arrays.t
(** The same trace encoded at the discretization's grid, straight from
    the model's realized chain ({!Stoch.Onoff.arrays} /
    {!Stoch.Env.arrays}): bit for bit [Loads.Arrays.make] of
    {!sample_load}, without the epoch list.  What {!run} samples. *)

type death_before = {
  db_deadline_min : float;  (** the deadline the probability is against *)
  db_deaths : int;  (** samples with death strictly before it *)
  db_fraction : float;  (** [db_deaths / mc_samples] *)
  db_ci_low : float;  (** 95% normal-approximation CI, clamped to [0,1] *)
  db_ci_high : float;
}
(** P(system death strictly before a mission deadline). *)

type policy_summary = {
  ps_policy : string;  (** policy name, as given in [policies] *)
  ps_deaths : int;  (** traces on which all batteries died *)
  ps_survived : int;  (** censored traces: batteries outlived the load *)
  ps_mean : float;  (** mean lifetime in minutes (censored at horizon) *)
  ps_stddev : float;  (** population standard deviation, minutes *)
  ps_quantiles : (float * float) list;
      (** [(p, minutes)] per requested quantile, ascending in [p];
          empty when no samples completed *)
  ps_death_before : death_before option;
      (** present iff [deadline_min] was given *)
}
(** One policy's lifetime distribution summary. *)

type dominance = {
  dom_a : string;
  dom_b : string;  (** the ordered pair (a before b in [policies]) *)
  dom_a_wins : int;  (** paired samples where [a] strictly outlives [b] *)
  dom_b_wins : int;  (** ... where [b] strictly outlives [a] *)
  dom_ties : int;  (** equal death steps, or both censored *)
  dom_a_fraction : float;  (** [dom_a_wins / mc_samples] *)
  dom_ci_low : float;  (** 95% normal-approximation CI on the fraction *)
  dom_ci_high : float;
}
(** Pairwise dominance on paired samples (both policies saw the same
    trace).  Lifetimes are compared at step resolution; a censored lane
    outlives any death, and two censored lanes tie. *)

type t = {
  mc_model : string;  (** {!model_name} of the sampled model *)
  mc_seed : int64;  (** root seed the lanes were split from *)
  mc_n_batteries : int;
  mc_samples_requested : int;
  mc_samples : int;
      (** samples actually completed and reduced — equals
          [mc_samples_requested] unless the budget tripped *)
  mc_tripped : Guard.Budget.trip option;
      (** why the run stopped early, if it did *)
  mc_policies : policy_summary list;  (** in [policies] order *)
  mc_dominance : dominance list;
      (** all ordered pairs [(i, j)], [i < j], in [policies] order *)
}
(** The estimation result ([Batsched.Report.montecarlo] renders it). *)

val default_policies : (string * Policy.t) list
(** Sequential, round robin and best-of — the paper's deterministic
    policies, all batchable. *)

val run :
  ?pool:Exec.Pool.t ->
  ?budget:Guard.Budget.t ->
  ?batch:bool ->
  ?switch_delay:int ->
  ?block:int ->
  ?quantiles:float list ->
  ?deadline_min:float ->
  ?policies:(string * Policy.t) list ->
  ?n_batteries:int ->
  seed:int64 ->
  samples:int ->
  model ->
  Dkibam.Discretization.t ->
  t
(** [run ~seed ~samples model disc] estimates the fleet distributions.

    [block] (default 2048, [>= 1]) sets how many samples are generated
    and batched per pass — a wall-clock/footprint knob that never
    affects the result.  [quantiles] (default the 5/25/50/75/95th
    percentiles) must lie strictly in (0, 1); duplicates are dropped
    and the list is sorted.  [policies] (default {!default_policies})
    must be non-empty; [Custom] policies work but fall back to the
    scalar simulator per lane.  [batch] overrides the
    [BATSCHED_NO_BATCH] environment default for A/B harnesses, and
    [switch_delay] is passed through to the simulator.

    Raises [Invalid_argument] on parameter violations and propagates
    {!Loads.Arrays.Not_representable} if the model generates epochs off
    the discretization grid (keep slot durations and currents on the
    grid — the model defaults are). *)
