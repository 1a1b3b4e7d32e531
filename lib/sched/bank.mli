(** A bank of dKiBaM batteries — the stateful half of the discharge
    kernel.

    Encapsulates the [batteries]/[dead] array pair that the simulator,
    the optimal search and the analysis layer all used to maintain by
    hand: concurrent recovery ([tick_all]), the fatal-draw observation
    rule of paper eq. (8) ([draw_from]), death bookkeeping, and the
    canonical serving loop over a {!Loads.Cursor.schedule} ([serve]).
    Banks are mutable; the optimal search snapshots them with {!copy}
    at every branch point. *)

type t

val create :
  ?initial:Dkibam.Battery.t array ->
  n_batteries:int ->
  Dkibam.Discretization.t ->
  t
(** [initial] defaults to [n_batteries] full batteries; its length must
    equal [n_batteries].  The array is copied. *)

val of_parts :
  Dkibam.Discretization.t ->
  batteries:Dkibam.Battery.t array ->
  dead:bool array ->
  t
(** Re-assemble a bank from explicit state (both arrays are copied);
    lengths must agree. *)

val copy : t -> t
val disc : t -> Dkibam.Discretization.t
val size : t -> int
val battery : t -> int -> Dkibam.Battery.t

val snapshot : t -> Dkibam.Battery.t array
(** A fresh copy of the battery states, by id. *)

val is_dead : t -> int -> bool

val alive : t -> int list
(** Ids not yet observed empty, ascending. *)

val any_alive : t -> bool
val all_dead : t -> bool

val tick_all : t -> int -> unit
(** Advance every battery (dead ones keep recovering, paper §4.3) by
    [k] steps of pure recovery. *)

val draw_from : t -> int -> cur:int -> bool
(** [draw_from t b ~cur]: battery [b] serves one draw of [cur] units.
    Returns [true] — and marks [b] dead — when the draw is fatal: the
    battery either lacks the charge units or satisfies the emptiness
    test of eq. (8) immediately after the draw. *)

val stranded : t -> int
(** Total charge units still held across the bank ([sum n_gamma]). *)

val stranded_units : Dkibam.Battery.t array -> int
(** Same, over a bare battery array (e.g. a simulator outcome). *)

(** {2 The serving loop} *)

type serve_outcome =
  | Completed  (** the span was served to its end, trailing rest included *)
  | Died of int
      (** the serving battery was observed empty at the draw landing this
          many steps after the span's first step; the trailing steps have
          {e not} been ticked — hand-over timing is the driver's call *)

val serve :
  ?tick:(int -> unit) -> t -> b:int -> Loads.Cursor.schedule -> serve_outcome
(** [serve t ~b sch]: battery [b] serves the span described by [sch] —
    for each scheduled draw, [tick] the whole bank [sch.ct] steps and
    apply {!draw_from}; after the last draw, [tick] the trailing
    [sch.rest].  [tick] defaults to {!tick_all} and is overridable so a
    driver can interleave trace sampling with the same semantics. *)
