(** Discrete battery state and its event semantics (paper §4.2, Fig. 5(a,b)).

    A battery holds [n_gamma] remaining charge units and a height
    difference of [m_delta] height units; [recov_clock] is the integer
    valuation of the TA clock [c_recov] (time steps since the last
    recovery event / reset).  All transitions below mirror the
    [total charge] and [height difference] automata edges:

    - {!tick} — one time step elapses: the recovery clock advances and, if
      it has reached [recov_time m_delta] with [m_delta >= 2], one height
      unit recovers and the clock resets;
    - {!draw} — a [use_charge] synchronization: [cur] units are drawn
      ([n_gamma -= cur], [m_delta += cur]); the recovery clock resets
      exactly when recovery was not already running ([m_delta <= 1]
      before the draw, the edges leaving [m_delta_0] / [m_delta_1]), and
      an already-due recovery fires immediately afterwards (the
      [recov_time] table shrinks as [m_delta] grows, so the invariant can
      be violated by the jump and must be re-established at the same
      instant).

    Emptiness (paper eq. (8)) is a *predicate*, not a state: the automaton
    observes it at draw instants, which is when callers should test
    {!is_empty}. *)

type t = private { n_gamma : int; m_delta : int; recov_clock : int }

val full : Discretization.t -> t
(** n_gamma = N, m_delta = 0 (paper §4.1 initial conditions). *)

val make : Discretization.t -> n_gamma:int -> m_delta:int -> recov_clock:int -> t
(** Arbitrary (validated) state, for tests: requires
    [0 <= n_gamma <= N], [0 <= m_delta <= N] and [recov_clock >= 0]. *)

val make_result :
  ?input:string ->
  Discretization.t ->
  n_gamma:int ->
  m_delta:int ->
  recov_clock:int ->
  (t, Guard.Error.t) result
(** [make] with the range violations reported as structured data — for
    battery states that originate from user input rather than code;
    [input] names the source (a CLI flag, a file). *)

val tick : Discretization.t -> t -> t
(** One time step of recovery. *)

val tick_many : Discretization.t -> int -> t -> t
(** [tick_many d k b] applies [tick] [k] times, in O(number of recovery
    events) rather than O(k). *)

val draw : Discretization.t -> cur:int -> t -> t
(** One discharge event of [cur >= 1] units.  Raises [Invalid_argument]
    if the battery does not hold [cur] units. *)

val to_cell : t -> Kernel.cell
(** A fresh {!Kernel.cell} holding this state, for serving a span with
    {!Kernel.serve}. *)

val of_cell : Kernel.cell -> t
(** The state a {!Kernel} transition left in a cell.  Unvalidated: the
    kernel's transitions keep every range {!make} checks. *)

val is_empty : Discretization.t -> t -> bool
val available_milli_units : Discretization.t -> t -> int

val available_charge : Discretization.t -> t -> float
(** y1 in A·min, from the discrete state: [c·(γ − (1 − c)·δ)] with
    γ = n·Γ and δ = m·Γ/c. *)

val total_charge : Discretization.t -> t -> float
(** γ = n·Γ in A·min. *)

val to_continuous : Discretization.t -> t -> Kibam.State.t
(** The (δ, γ) state this discrete state represents. *)

val of_continuous : Discretization.t -> Kibam.State.t -> t
(** Nearest discrete state (recovery clock zeroed). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
