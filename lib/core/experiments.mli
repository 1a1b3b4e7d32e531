(** Reproduction drivers for every table and figure of the paper.

    Each function recomputes one published artifact with this library's
    engines and pairs it with the transcription in {!Paper_data}.  The
    bench harness ([bench/main.ml]) and the [batsched tables] command are
    thin printers over these. *)

val time_step : float
(** 0.01 min — the paper's discretization (§5). *)

val charge_unit : float
(** 0.01 A·min. *)

val arrays_of : ?horizon:float -> Loads.Testloads.name -> Loads.Arrays.t
(** A test load in the §4.1 integer encoding at the paper's
    discretization. *)

(** {2 Tables 3 and 4 — single-battery validation} *)

type validation_row = {
  load : Loads.Testloads.name;
  analytic : float;  (** our analytic-KiBaM lifetime *)
  discrete : float;  (** our dKiBaM lifetime *)
  paper_analytic : float;
  paper_discrete : float;
  comparable : bool;  (** false for the unpublished-seed random loads *)
}

val table3 : unit -> validation_row list
val table4 : unit -> validation_row list

(** {2 Table 5 — two-battery scheduling} *)

type schedule_row = {
  load : Loads.Testloads.name;
  sequential : float;
  round_robin : float;
  best_of_two : float;
  optimal : float;
  paper : Paper_data.schedule_row;
  comparable : bool;
}

val table5 : ?switch_delay:int -> unit -> schedule_row list
(** Default [switch_delay] is {!Sched.Simulator}'s 1. *)

(** {2 Figure 6 — charge evolution and schedules under ILs alt} *)

type fig6_point = {
  time : float;  (** minutes *)
  total : float array;  (** per-battery total charge γ, A·min *)
  available : float array;  (** per-battery available charge y1, A·min *)
  serving : int option;
}

type fig6 = {
  points : fig6_point list;
  intervals : (float * float * int) list;
      (** (from, to, battery) serving spans, minutes *)
  lifetime : float;
  stranded_fraction : float;
      (** charge left in the batteries at death / initial charge — the
          paper quotes ≈70 % for best-of-two *)
}

val figure6 : [ `Best_of_two | `Optimal ] -> fig6

(** {2 Ablations} *)

val capacity_sweep :
  ?policy:Sched.Policy.t ->
  ?load:Loads.Testloads.name ->
  factors:float list ->
  unit ->
  (float * float * float) list
(** §6's capacity observation ("with a ten times larger capacity the
    stranded fraction drops below 10 %"): for each capacity factor,
    [(factor, lifetime, stranded_fraction)] for two scaled-B1 batteries
    under [policy] (default best-of-two) on [load] (default ILs alt). *)

val complexity_probe :
  ?loads:Loads.Testloads.name list ->
  unit ->
  (Loads.Testloads.name * int * int * float) list
(** §4.4's complexity claim: per load, (scheduling decisions on the
    optimal path, memo positions explored, search seconds) for the
    two-battery optimal search. *)

val model_comparison :
  ?loads:Loads.Testloads.name list ->
  unit ->
  (Loads.Testloads.name * float * float) list
(** Model-fidelity ablation (DESIGN.md S9): per load, B1 lifetime under
    the analytic KiBaM vs the Rakhmatov–Vrudhula diffusion model fitted
    to the same cell. *)

(** {2 Engine cross-validation (DESIGN.md substitution check)} *)

type cross_validation = {
  toy_description : string;
  fast_lifetime_steps : int;
  fast_stranded : int;
  ta_lifetime_steps : int;
  ta_stranded : int;
  agrees : bool;
}

val cross_validate : unit -> cross_validation
(** Runs the generic TA-KiBaM min-cost search and the fast
    branch-and-bound on a scaled-down two-battery instance and compares
    optimal stranded charge and lifetime ([switch_delay = 0], skip race
    mirrored — see {!Sched.Optimal}). *)

val lookahead_sweep :
  ?load:Loads.Testloads.name ->
  ks:int list ->
  unit ->
  (int option * float) list
(** Ablation X2: the implementable middle ground between best-of and the
    clairvoyant optimum, swept over the {!Sched.Horizon} window.
    Returns [(None, best_of_lifetime)] followed by [(Some k, lifetime)]
    per requested window of [k] jobs and finally [(None, optimal)] —
    consumed by {!Report.lookahead_sweep}. *)

type granularity_row = {
  g_time_step : float;
  g_charge_unit : float;
  g_lifetime : float;  (** single B1, ILs alt, dKiBaM *)
  g_error_vs_analytic : float;  (** relative, vs the exact KiBaM *)
  g_positions : int;  (** memo positions of the 2-battery optimal search *)
}

val granularity_sweep :
  ?grids:(float * float) list -> unit -> granularity_row list
(** Ablation A3 — the §2.3/§4.4 discretization claims: the charge unit Γ
    governs both the dKiBaM's accuracy and the search's state count
    (∝ 1/Γ), while refining the time step T alone only subdivides delays.
    Default grids: T = Γ from 0.01 to 0.1, plus finer-time-only points. *)

val multi_battery :
  ?ns:int list ->
  ?load:Loads.Testloads.name ->
  unit ->
  (int * Sched.Analysis.t) list
(** Beyond the paper: the Table-5 comparison generalized to packs of
    [ns] (default [\[2; 3; 4\]]) B1 batteries on [load] (default ILs
    alt).  Search cost grows exponentially with the pack size (§4.4), so
    the default load is one the optimal search still handles at n = 4. *)
