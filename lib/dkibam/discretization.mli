(** The dKiBaM discretization (paper §2.3 and §4.1).

    Time advances in steps of [time_step] ([T], minutes).  The total charge
    is held in [n_units] ([N = C/Γ]) units of [charge_unit] ([Γ], A·min);
    the height difference is held in units of [Γ/c].  The non-linear
    recovery process (eq. (4)) is pre-tabulated: [recov_time m] is the
    number of time steps needed to fall from height difference [m] to
    [m − 1] (eq. (6), rounded to the nearest integer number of steps).
    Fractions such as the well parameter [c] are scaled by 1000 into
    integers so that every guard of the timed-automata model is exact
    integer arithmetic — e.g. the emptiness test (eq. (8)) becomes
    [(1000 − c_milli)·m ≥ c_milli·n].

    {2 The recovery timeline}

    Idle, the height difference decays as δ(t) = δ₀·e^(−k′t), and
    eq. (6) tabulates the time it takes to cross each unit of height
    difference.  Its prefix sums

    {[ C(m) = recov_time 2 + ... + recov_time m     (C(0) = C(1) = 0) ]}

    are the discrete image of that decay: a battery at height
    difference [m] whose recovery clock reads [clock] sits at the
    point [T = C(m) − clock] of one timeline, and every recovery step
    moves it one step towards 0, whatever [m] is — [k] steps take [T]
    to [T − k].  [T ≤ 0] is [m = 1] with the clock at [−T].  The
    inverse [M(T)], the [m] with [C(m − 1) < T ≤ C(m)] ([M(T) = 1] for
    [T ≤ 0]), reads the state back: [m = M(T)], [clock = C(m) − T].

    A draw of [cur] units lands on

    {[ D_cur(T) = max (C(M(T) + cur) − (C(M(T)) − T)) (C(M(T) + cur − 1)) ]}

    — the clock carried to [m + cur], or, when that clock is already
    past [recov_time (m + cur)], the recovery that fires at the draw's
    instant (the settle rule is exactly the [max]).  From [T ≤ 0] the
    clock resets and a draw lands on [C(1 + cur)].

    {!Kernel.serve} runs every engine on these tables: [C] and [M]
    ({!val-timeline}) and one [D_cur] per tabulated [cur] ({!draw_table}),
    which holds [M] of each landing point next to it, so that a draw
    and its eq. (8) test read one pair of adjacent entries.  They are
    built on first use and stored in 16 bits per entry (for B1,
    [C(N)] = 5,197 steps, so [M] takes about 10 KiB and each [D_cur]
    about 20 KiB).  They are published through the [timeline] field's
    [Atomic], so domains that share a discretization ({!paper_b1},
    {!paper_b2}) read them without a lock and build each one at most
    once between them (under a lock).  A timeline longer than
    {!timeline_cap} steps is never built: such a discretization (a
    tiny [k′], say) keeps the event loop.  The tables are derived
    data: they never enter a digest ({!fields}). *)

type table = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One timeline table, 2 bytes per entry. *)

type timeline = private {
  span : int;
      (** [C(n_units)], the last point of the timeline; negative when
          the timeline is past {!timeline_cap} (no tables) *)
  c_of : table;  (** [C(m)] for [m = 0 .. n_units] *)
  m_of : table;  (** [M(T)] for [T = 0 .. span] *)
  draw : draw array;
      (** [draw.(cur − 1)]: [D_cur] once {!draw_table} has built it,
          {!no_table} before *)
}
(** The recovery timeline's tables (see above). *)

and draw = private { d_cur : table }
(** One [D_cur]: entry [2T] is the landing point [T' = D_cur(T)] and
    entry [2T + 1] is [M(T')], for [T = 0 .. span]; both are [0] where
    the draw would take [m] past [n_units].  A record rather than a
    bare table, so that reading it out of [draw] needs no float-array
    check. *)

type t = private {
  params : Kibam.Params.t;
  time_step : float;  (** T, minutes *)
  charge_unit : float;  (** Γ, A·min *)
  n_units : int;  (** N = C/Γ, the initial [n_gamma] *)
  c_milli : int;  (** round(1000·c) *)
  recov_time : int array;
      (** [recov_time.(m)], m ≥ 2; entries 0 and 1 are [infinite_time] *)
  timeline : timeline Atomic.t;
      (** the recovery timeline, once built: read it through {!val-timeline}
          and {!draw_table} *)
}

val infinite_time : int
(** Sentinel for "never recovers" ([max_int / 4], safely addable). *)

val make :
  ?time_step:float -> ?charge_unit:float -> Kibam.Params.t -> t
(** Defaults are the paper's: [time_step = 0.01] min and
    [charge_unit = 0.01] A·min (§5).  Requires the capacity to be an
    integral number of charge units (within 1e-6). *)

val paper_b1 : t
(** B1 at the paper's discretization: N = 550. *)

val paper_b2 : t
(** B2 at the paper's discretization: N = 1100. *)

val recov_time : t -> int -> int
(** [recov_time d m]: steps to recover one height unit at height
    difference [m]; {!infinite_time} for [m <= 1].  The table is sized
    [n_units + 1] — the height difference can never exceed the number of
    charge units drawn — and out-of-range [m] raises [Invalid_argument]. *)

val fields :
  t -> Kibam.Params.t * float * float * int * int * int array
(** The six defining fields, [(params, time_step, charge_unit,
    n_units, c_milli, recov_time)]: what a digest of a discretization
    marshals.  It never changes as tables get built, and it marshals
    to the bytes of a record of these six fields, which is what the
    fingerprints of [sched.optimal.memo.v2] checkpoints digest. *)

val timeline_cap : int
(** 65,534: the longest timeline ([C(n_units)], in steps) that gets
    tables — the longest whose every entry fits in 16 bits (each
    [recov_time] is at least one step, so [n_units ≤ C(n_units) + 1]).
    B1 at the paper's grid needs 5,197, B2 5,747 and the finest
    ablation grid ([T] = 0.0025 min) 20,682; at the cap, [M] takes
    128 KiB and each [D_cur] 256 KiB. *)

val max_draw_cur : int
(** 4: draws of [1 .. max_draw_cur] units are tabulated (the repo's
    0.25–2.0 A currents draw at most 3 units per draw at the paper's
    grid); a larger [cur] is served by the event loop. *)

val no_table : table
(** The 0-length table that stands for a [D_cur] not built yet. *)

val timeline : t -> timeline
(** The timeline's [C] and [M] tables, built on the first call. *)

val draw_table : t -> int -> table
(** [draw_table d cur]: the table [D_cur], built on the first call for
    this [cur].  Raises [Invalid_argument] when [cur] is outside
    [1 .. max_draw_cur] or the timeline is past the cap. *)

val height_unit : t -> float
(** Γ/c in A·min (≈ 0.06 for the paper's cell). *)

val steps_of_minutes : t -> float -> int
(** Round a duration to time steps (raises if off-grid by > 1e-6). *)

val minutes_of_steps : t -> int -> float

val charge_of_units : t -> int -> float
(** n·Γ in A·min. *)

val is_empty : t -> n:int -> m:int -> bool
(** Paper eq. (8): [(1000 − c_milli)·m ≥ c_milli·n]. *)

val available_milli_units : t -> n:int -> m:int -> int
(** [c_milli·n − (1000 − c_milli)·m]: available charge in 1/1000ths of a
    charge unit; positive iff non-empty.  This is the best-of-two
    scheduler's comparison key. *)

val pp : Format.formatter -> t -> unit
