(** The paper's integer load encoding (§4.1, Table 1).

    A load is imported into the TA-KiBaM as three equal-length arrays:

    - [load_time.(y)] — absolute time (in time steps) at which epoch [y]
      ends; strictly increasing;
    - [cur_times.(y)] — number of time steps it takes to draw [cur.(y)]
      charge units during epoch [y];
    - [cur.(y)] — charge units drawn per [cur_times.(y)] steps
      (0 for idle epochs),

    so the epoch current is [I_y = cur.(y)·Γ / (cur_times.(y)·T)]
    (paper eq. (7)).  These arrays are produced by "an external program"
    in the paper; this module (and the [loadgen] binary wrapping it) is
    that program. *)

type t = private {
  load_time : int array;
  cur_times : int array;
  cur : int array;
  time_step : float;  (** the T this encoding was produced for *)
  charge_unit : float;  (** the Γ this encoding was produced for *)
}

exception Not_representable of string
(** Raised when an epoch's current admits no exact small-integer
    [cur/cur_times] encoding, or an epoch boundary does not fall on the
    time grid (within 1e-6 of a step). *)

val to_fraction : max_den:int -> float -> (int * int) option
(** [to_fraction ~max_den x]: the first fraction [p/q] on [x]'s
    Stern–Brocot path that lies within [1e-9 · max 1 x] of [x], or
    [None] when [x <= 0], when the path reaches a denominator above
    [max_den] first, or when it is more than 100,000 steps deep.
    A run of more than eight same-direction steps is jumped by an
    exponential then binary search, so it costs O(log r) mediants
    instead of its [r] (descending to [1/10_000] takes a few dozen,
    not 9,999); the path, and so the answer, is the step-by-step
    descent's.  {!make} encodes each job's [I·T/Γ] with
    [max_den = 10_000]. *)

val make : time_step:float -> charge_unit:float -> Epoch.t -> t
(** [make ~time_step ~charge_unit load] encodes [load], one epoch at a
    time through a {!type-builder}.  The ratio
    [I·T/Γ] of each job is converted to the smallest exact fraction
    [cur/cur_times] with [cur_times <= 10_000] ({!to_fraction});
    idle epochs get [cur = 0] and [cur_times] equal to the
    epoch length.  Raises {!Not_representable} when exactness is
    impossible. *)

(** {2 Encoding epoch by epoch}

    {!make} walks an epoch list through this encoder.  A producer that
    holds its load in another form (a stochastic sampler's realized
    chain, say) appends the same epochs to a builder directly and gets
    the same arrays, bit for bit, without building the list. *)

type builder
(** An encoding in progress. *)

val builder :
  ?capacity:int -> time_step:float -> charge_unit:float -> unit -> builder
(** An empty encoding at this discretization; [capacity] (default 16)
    is the expected epoch count, and the builder grows past it.
    Raises [Invalid_argument] when [time_step] or [charge_unit] is not
    positive. *)

val add_idle : builder -> float -> unit
(** Append an idle epoch of this many minutes.  Raises
    {!Not_representable} when it is off the time grid. *)

val add_job : builder -> current:float -> duration:float -> unit
(** Append a job epoch: its duration is rounded to steps, then its
    current encoded as {!make} does — one {!to_fraction} per distinct
    current (the first eight distinct currents are remembered).  Raises
    {!Not_representable} as {!make} does. *)

val finish : builder -> t
(** The arrays, after {!validate}.  Raises [Invalid_argument] when no
    epoch was added. *)

val make_result :
  ?input:string ->
  time_step:float ->
  charge_unit:float ->
  Epoch.t ->
  (t, Guard.Error.t) result
(** [make] with structured errors instead of exceptions: bad
    discretization constants and non-representable loads come back as
    a {!Guard.Error.t} naming the offending field and the accepted
    range; [input] (e.g. the spec string or file name) is attached for
    the message.  What the CLI uses. *)

val epoch_count : t -> int

val current : t -> int -> float
(** Recover epoch [y]'s current from eq. (7) — inverse of the encoding,
    used as a round-trip test. *)

val epoch_steps : t -> int -> int
(** Length of epoch [y] in time steps. *)

val validate : t -> unit
(** Check the §4.1 invariants (strict monotonicity of [load_time],
    positive [cur_times], non-negative [cur]); raises [Invalid_argument]
    on violation.  Exposed because arrays can also be built by hand in
    tests. *)

val of_arrays :
  time_step:float ->
  charge_unit:float ->
  load_time:int array ->
  cur_times:int array ->
  cur:int array ->
  t
(** Trusted-ish constructor running {!validate}. *)

val check_compatible : t -> time_step:float -> charge_unit:float -> unit
(** Raise [Invalid_argument] unless the encoding was produced for these
    discretization constants — every engine calls this, so a load encoded
    at one Γ can never be silently replayed at another. *)

val pp : Format.formatter -> t -> unit
