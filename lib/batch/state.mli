(** Struct-of-arrays state for batched dKiBaM simulation.

    One [t] holds the complete dynamic state of a whole batch of
    independent (bank, load, policy) simulation lanes as flat integer
    [Bigarray] planes sliced out of a {e single} backing buffer — one
    allocation per batch, lane-major layout, no boxed values on the hot
    path.  The dKiBaM state is integral (charge units, height units,
    clock steps), so the planes are [int] rather than [float64]: a
    float representation could not honour the batch engine's
    bit-identity contract with the scalar kernel.

    The record is deliberately {e concrete}: [Batch.Engine] iterates the
    planes with [unsafe_get]/[unsafe_set], and tests may read them
    wholesale.  Per-battery planes are indexed
    [lane * n_batteries + battery]; per-lane planes by lane. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A flat native-int plane — one slice of the backing buffer. *)

type t = {
  disc : Dkibam.Discretization.t;
  lanes : int;
  n_batteries : int;  (** batteries per lane (every lane's bank size) *)
  n_gamma : ints;  (** per battery: remaining charge units *)
  m_delta : ints;  (** per battery: height-difference units *)
  recov_clock : ints;  (** per battery: steps since the last recovery *)
  dead : ints;  (** per battery: 1 once observed empty *)
  load_of : int array;  (** per lane: index into the engine's loads *)
  policy_code : int array;  (** per lane: engine-private policy code *)
  fixed : int array array;  (** per lane: fixed schedule, [[||]] unless used *)
  pol_state : ints;  (** per lane: round-robin cursor / fixed index *)
  epoch : ints;  (** per lane: current epoch of its load *)
  clock : ints;  (** per lane: absolute step at the current epoch start *)
  alive : ints;  (** per lane: batteries not yet observed empty *)
  lifetime : ints;  (** per lane: death step of the last battery, -1 alive *)
  finished : ints;  (** per lane: 1 once the lane's run is over *)
  stranded : ints;  (** per lane: charge units left, set at finish *)
  mutable steps : int;  (** battery-steps simulated so far, whole batch *)
}

val create : lanes:int -> n_batteries:int -> Dkibam.Discretization.t -> t
(** Fresh state: every lane holds [n_batteries] full batteries at epoch
    0, step 0.  Lane descriptors ([load_of], [policy_code], [fixed]) are
    zeroed; the engine fills them. *)

(** {2 Read-out} *)

val lanes : t -> int
(** Number of lanes in the batch. *)

val n_batteries : t -> int
(** Batteries per lane. *)

val disc : t -> Dkibam.Discretization.t
(** The discretization every lane runs under. *)

val finished : t -> int -> bool
(** Has the lane's run ended (all batteries dead, or load exhausted)? *)

val lifetime_steps : t -> int -> int option
(** [Some s] — the lane's last battery was observed empty at absolute
    step [s]; [None] — the load ended with a battery still alive
    (matches [Sched.Simulator.outcome.lifetime_steps] bit for bit). *)

val stranded : t -> int -> int
(** Charge units left across the lane's bank when it finished (matches
    [Sched.Bank.stranded_units] of the scalar simulator's final
    state). *)

val battery : t -> int -> int -> Dkibam.Battery.t
(** [battery t lane j]: lane [lane]'s battery [j], boxed — for
    differential tests against the scalar path. *)
