type t = { n_gamma : int; m_delta : int; recov_clock : int }

let full (d : Discretization.t) =
  { n_gamma = d.n_units; m_delta = 0; recov_clock = 0 }

let make (d : Discretization.t) ~n_gamma ~m_delta ~recov_clock =
  if n_gamma < 0 || n_gamma > d.n_units then
    invalid_arg "Dkibam.Battery.make: n_gamma out of range";
  if m_delta < 0 || m_delta > d.n_units then
    invalid_arg "Dkibam.Battery.make: m_delta out of range";
  if recov_clock < 0 then invalid_arg "Dkibam.Battery.make: negative clock";
  { n_gamma; m_delta; recov_clock }

(* Same checks as [make], reported as data: battery states can come
   from user input (CLI pack descriptions, checkpointed states), where
   a range violation is a bad input, not a programming error. *)
let make_result ?input (d : Discretization.t) ~n_gamma ~m_delta ~recov_clock =
  let err field value accepted what =
    Error
      (Guard.Error.make ~subsystem:"dkibam.battery" ?input ~field
         ~value:(string_of_int value) ~accepted what)
  in
  if n_gamma < 0 || n_gamma > d.n_units then
    err "n_gamma" n_gamma
      (Printf.sprintf "0 <= n_gamma <= %d (the pack's N)" d.n_units)
      "remaining charge units out of range"
  else if m_delta < 0 || m_delta > d.n_units then
    err "m_delta" m_delta
      (Printf.sprintf "0 <= m_delta <= %d (the pack's N)" d.n_units)
      "height-difference units out of range"
  else if recov_clock < 0 then
    err "recov_clock" recov_clock "a non-negative number of time steps"
      "recovery clock out of range"
  else Ok { n_gamma; m_delta; recov_clock }

(* The transition arithmetic lives in [Kernel], shared with the
   struct-of-arrays batch engine; this module only boxes it. *)

let to_cell b = { Kernel.n = b.n_gamma; m = b.m_delta; clock = b.recov_clock }

let of_cell (c : Kernel.cell) =
  { n_gamma = c.n; m_delta = c.m; recov_clock = c.clock }

let tick_many d k b =
  if k < 0 then invalid_arg "Dkibam.Battery.tick_many: negative step count";
  if k = 0 then b
  else begin
    let c = to_cell b in
    Kernel.tick d c k;
    of_cell c
  end

let tick d b = tick_many d 1 b

let draw d ~cur b =
  if cur < 1 then invalid_arg "Dkibam.Battery.draw: cur must be >= 1";
  if b.n_gamma < cur then
    invalid_arg "Dkibam.Battery.draw: not enough charge units left";
  let c = to_cell b in
  Kernel.draw d c ~cur;
  of_cell c

let is_empty d b = Discretization.is_empty d ~n:b.n_gamma ~m:b.m_delta

let available_milli_units d b =
  Discretization.available_milli_units d ~n:b.n_gamma ~m:b.m_delta

let available_charge (d : Discretization.t) b =
  float_of_int (available_milli_units d b) *. d.charge_unit /. 1000.0

let total_charge d b = Discretization.charge_of_units d b.n_gamma

let to_continuous (d : Discretization.t) b =
  {
    Kibam.State.gamma = float_of_int b.n_gamma *. d.charge_unit;
    delta = float_of_int b.m_delta *. Discretization.height_unit d;
  }

let of_continuous (d : Discretization.t) (s : Kibam.State.t) =
  let n = int_of_float (Float.round (s.gamma /. d.charge_unit)) in
  let m = int_of_float (Float.round (s.delta /. Discretization.height_unit d)) in
  make d ~n_gamma:(max 0 (min d.n_units n)) ~m_delta:(max 0 (min d.n_units m))
    ~recov_clock:0

let pp ppf b =
  Format.fprintf ppf "{ n = %d; m = %d; c_recov = %d }" b.n_gamma b.m_delta
    b.recov_clock

let equal a b = a = b
let compare = Stdlib.compare
