(** Markov-modulated on/off load generator.

    The workload model of Kaj & Konané's stochastic battery analysis
    (PAPERS.md), discretized onto the paper's epoch structure: time is
    a sequence of [slots] slots of [slot] minutes each, and a two-state
    Markov chain decides per slot whether the device is {e on} (drawing
    a job current) or {e off} (idle).  The chain moves off→on with
    probability [p_on] and on→off with probability [p_off] at each slot
    boundary; the initial state is drawn from the stationary
    distribution, so every slot is marginally on with probability
    [p_on / (p_on + p_off)] and bursts have geometric length (mean
    [1/p_off] slots).  Each burst draws its current uniformly from
    [currents] at burst start and holds it until switch-off.

    Compilation into {!Loads.Epoch.t} keeps every on slot as its own
    job epoch — one scheduling point per slot, exactly like the paper's
    IL loads — and merges off runs into single idle epochs, so the
    result round-trips through {!Loads.Spec} and is accepted by
    {!Loads.Arrays.make} at the paper discretization whenever [slot]
    and the currents sit on the grid (the defaults do).

    Reproducibility contract: {!sample} is a pure function of
    [(t, seed)].  The PRNG draw order is fixed — one [float] for the
    initial state, one [choose] per burst start, one [float] per slot
    boundary — and is part of this interface: changing it would silently
    re-randomize every committed experiment. *)

type t = private {
  p_on : float;  (** P(off → on) per slot boundary, in [0, 1] *)
  p_off : float;  (** P(on → off) per slot boundary, in [0, 1] *)
  currents : float array;  (** burst currents (A), strictly positive *)
  slot : float;  (** slot duration in minutes, strictly positive *)
  slots : int;  (** horizon in slots, at least 1 *)
}

val make :
  ?p_on:float ->
  ?p_off:float ->
  ?currents:float array ->
  ?slot:float ->
  slots:int ->
  unit ->
  t
(** Validating constructor.  Defaults: [p_on = 0.5], [p_off = 0.5]
    (stationary on-fraction one half, mean burst two slots),
    [currents = \[| 0.25; 0.5 |\]] (the paper's job currents),
    [slot = 1.0] minute.  Invalid parameters raise a structured
    {!Guard.Error.Error} naming the offending field; [p_on] and
    [p_off] must not both be zero (the chain would have no stationary
    distribution to start from). *)

val stationary_on : t -> float
(** The stationary probability of being on,
    [p_on / (p_on + p_off)] — also the expected fraction of busy
    slots. *)

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
