(** Random-environment drain generator.

    The second stochastic workload of Kaj & Konané's battery analysis
    (PAPERS.md): the device sits in a random environment that modulates
    its drain.  The environment is a continuous-drain Markov jump
    process discretized onto slots — it occupies one of [levels]'
    states (each a drain current in amperes, with level [0.0] meaning
    idle), dwells there a geometric number of slots (mean
    [mean_dwell]), then jumps uniformly to one of the {e other}
    states.  Each sojourn compiles into a single epoch: a multi-slot
    job at the level's current (one scheduling point per sojourn — a
    coarser decision grid than {!Onoff}, like the paper's CL loads), or
    an idle epoch for the zero level.

    Because levels are pairwise distinct, consecutive epochs always
    differ, and the compiled trace round-trips through {!Loads.Spec}
    and is accepted by {!Loads.Arrays.make} at the paper discretization
    whenever [slot] and the levels sit on the grid (the defaults do).

    Reproducibility contract: {!sample} is a pure function of
    [(t, seed)].  The PRNG draw order is fixed — one [int] for the
    initial state, then one [float] (dwell) and one [int] (next state)
    per sojourn — and is part of this interface. *)

type t = private {
  levels : float array;
      (** drain levels in amperes, pairwise distinct, all [>= 0];
          [0.0] is the idle state *)
  mean_dwell : float;  (** mean sojourn length in slots, [>= 1] *)
  slot : float;  (** slot duration in minutes, strictly positive *)
  slots : int;  (** horizon in slots, at least 1 *)
}

val make :
  ?levels:float array ->
  ?mean_dwell:float ->
  ?slot:float ->
  slots:int ->
  unit ->
  t
(** Validating constructor.  Defaults: [levels = \[| 0.0; 0.25; 0.5 |\]]
    (idle plus the paper's two job currents), [mean_dwell = 4.0] slots,
    [slot = 1.0] minute.  Invalid parameters raise a structured
    {!Guard.Error.Error} naming the offending field. *)

val sample : t -> seed:int64 -> Loads.Epoch.t
(** Draw one device trace.  Deterministic in [(t, seed)]; use
    {!Prng.Splitmix.split} to derive per-device seeds from a root seed
    so any lane can be regenerated in isolation. *)

val arrays :
  t -> seed:int64 -> time_step:float -> charge_unit:float -> Loads.Arrays.t
(** The same trace, encoded straight into the integer arrays: equal,
    bit for bit, to [Loads.Arrays.make ~time_step ~charge_unit (sample
    t ~seed)], exceptions included, without building the epoch list.
    Both come from one realization of the chain, so the draw order
    above is written once. *)

val spec : t -> seed:int64 -> string
(** [Loads.Spec.to_string (sample t ~seed)] — the sampled trace as an
    ordinary load spec, runnable by any [batsched] subcommand. *)

val pp : Format.formatter -> t -> unit
(** One-line parameter summary. *)
