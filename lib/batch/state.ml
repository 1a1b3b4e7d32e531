type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  disc : Dkibam.Discretization.t;
  lanes : int;
  n_batteries : int;
  n_gamma : ints;
  m_delta : ints;
  recov_clock : ints;
  dead : ints;
  load_of : int array;
  policy_code : int array;
  fixed : int array array;
  pol_state : ints;
  epoch : ints;
  clock : ints;
  alive : ints;
  lifetime : ints;
  finished : ints;
  stranded : ints;
  mutable steps : int;
}

let create ~lanes ~n_batteries (disc : Dkibam.Discretization.t) =
  if lanes < 0 then invalid_arg "Batch.State.create: negative lane count";
  if n_batteries < 1 then invalid_arg "Batch.State.create: need >= 1 battery";
  (* One flat backing buffer for every per-lane integer plane, sliced
     into named views: the whole batch is a single allocation, and the
     planes stay contiguous in lane order. *)
  let per_battery = 4 * lanes * n_batteries and per_lane = 7 * lanes in
  let backing =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (per_battery + per_lane)
  in
  let off = ref 0 in
  let plane len =
    let view = Bigarray.Array1.sub backing !off len in
    off := !off + len;
    view
  in
  let nb = lanes * n_batteries in
  let n_gamma = plane nb
  and m_delta = plane nb
  and recov_clock = plane nb
  and dead = plane nb
  and pol_state = plane lanes
  and epoch = plane lanes
  and clock = plane lanes
  and alive = plane lanes
  and lifetime = plane lanes
  and finished = plane lanes
  and stranded = plane lanes in
  Bigarray.Array1.fill n_gamma disc.n_units;
  Bigarray.Array1.fill m_delta 0;
  Bigarray.Array1.fill recov_clock 0;
  Bigarray.Array1.fill dead 0;
  Bigarray.Array1.fill pol_state 0;
  Bigarray.Array1.fill epoch 0;
  Bigarray.Array1.fill clock 0;
  Bigarray.Array1.fill alive n_batteries;
  Bigarray.Array1.fill lifetime (-1);
  Bigarray.Array1.fill finished 0;
  Bigarray.Array1.fill stranded 0;
  {
    disc;
    lanes;
    n_batteries;
    n_gamma;
    m_delta;
    recov_clock;
    dead;
    load_of = Array.make lanes 0;
    policy_code = Array.make lanes 0;
    fixed = Array.make lanes [||];
    pol_state;
    epoch;
    clock;
    alive;
    lifetime;
    finished;
    stranded;
    steps = 0;
  }

let lanes t = t.lanes
let n_batteries t = t.n_batteries
let disc t = t.disc

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg "Batch.State: lane index out of range"

let finished t lane =
  check_lane t lane;
  Bigarray.Array1.get t.finished lane = 1

let lifetime_steps t lane =
  check_lane t lane;
  match Bigarray.Array1.get t.lifetime lane with
  | -1 -> None
  | s -> Some s

let stranded t lane =
  check_lane t lane;
  Bigarray.Array1.get t.stranded lane

let battery t lane j =
  check_lane t lane;
  if j < 0 || j >= t.n_batteries then
    invalid_arg "Batch.State.battery: battery index out of range";
  let idx = (lane * t.n_batteries) + j in
  Dkibam.Battery.make t.disc
    ~n_gamma:(Bigarray.Array1.get t.n_gamma idx)
    ~m_delta:(Bigarray.Array1.get t.m_delta idx)
    ~recov_clock:(Bigarray.Array1.get t.recov_clock idx)
