module A = Bigarray.Array1

type table = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) A.t
type timeline = { span : int; c_of : table; m_of : table; draw : draw array }
and draw = { d_cur : table }

type t = {
  params : Kibam.Params.t;
  time_step : float;
  charge_unit : float;
  n_units : int;
  c_milli : int;
  recov_time : int array;
  timeline : timeline Atomic.t;
}

let infinite_time = max_int / 4
let timeline_cap = 65_534
let max_draw_cur = 4
let unbuilt = -2
let table k = A.create Bigarray.int16_unsigned Bigarray.c_layout k
let no_table = table 0
let no_timeline span = { span; c_of = no_table; m_of = no_table; draw = [||] }

let make ?(time_step = 0.01) ?(charge_unit = 0.01) (params : Kibam.Params.t) =
  if time_step <= 0.0 then invalid_arg "Dkibam.Discretization: time_step <= 0";
  if charge_unit <= 0.0 then
    invalid_arg "Dkibam.Discretization: charge_unit <= 0";
  let n_f = params.capacity /. charge_unit in
  let n_units = int_of_float (Float.round n_f) in
  if Float.abs (n_f -. float_of_int n_units) > 1e-6 *. n_f || n_units <= 0 then
    invalid_arg
      "Dkibam.Discretization: capacity must be an integral number of charge \
       units";
  let c_milli = int_of_float (Float.round (1000.0 *. params.c)) in
  if c_milli <= 0 || c_milli >= 1000 then
    invalid_arg "Dkibam.Discretization: c out of (0.001, 0.999) after scaling";
  (* Paper eq. (6): time to fall from height difference m to m-1 is
     (1/k') * ln(m / (m-1)), rounded to the nearest number of steps. *)
  let recov_time =
    Array.init (n_units + 1) (fun m ->
        if m <= 1 then infinite_time
        else begin
          let t =
            1.0 /. params.k'
            *. Float.log (float_of_int m /. float_of_int (m - 1))
          in
          let steps = int_of_float (Float.round (t /. time_step)) in
          (* Rounding can reach 0 for very large m at a coarse time step; a
             zero recovery time would recover infinitely fast, so clamp. *)
          max steps 1
        end)
  in
  {
    params;
    time_step;
    charge_unit;
    n_units;
    c_milli;
    recov_time;
    timeline = Atomic.make (no_timeline unbuilt);
  }

let paper_b1 = make Kibam.Params.b1
let paper_b2 = make Kibam.Params.b2

let recov_time t m =
  if m < 0 || m > t.n_units then
    invalid_arg
      (Printf.sprintf "Dkibam.Discretization.recov_time: m = %d out of [0, %d]"
         m t.n_units);
  t.recov_time.(m)

let fields t =
  (t.params, t.time_step, t.charge_unit, t.n_units, t.c_milli, t.recov_time)

(* The recovery timeline (see the .mli).  Tables are built on first
   use, under one process-wide lock, and published by replacing the
   record in [t.timeline]: a reader sees either the old record or the
   new one, both valid, and never takes the lock once its tables
   exist. *)
let lock = Mutex.create ()

let build_timeline t =
  (* C(m) = sum of recov_time.(2 .. m), stopped past the cap; the
     subtraction keeps the sum from overflowing.  Each recov_time is at
     least one step, so more than cap + 1 units are past it at once. *)
  let n = t.n_units in
  let past_cap = ref (n > timeline_cap + 1) in
  let c = Array.make (if !past_cap then 0 else n + 1) 0 and m = ref 2 in
  while (not !past_cap) && !m <= n do
    let r = t.recov_time.(!m) in
    if r > timeline_cap - c.(!m - 1) then past_cap := true
    else c.(!m) <- c.(!m - 1) + r;
    incr m
  done;
  if !past_cap then no_timeline (-1)
  else begin
    let span = c.(n) in
    let c_of = table (n + 1) and m_of = table (span + 1) in
    Array.iteri (A.set c_of) c;
    (* M(T) = m on C(m - 1) < T <= C(m); M(0) = 1 *)
    A.set m_of 0 1;
    for m = 2 to n do
      A.fill (A.sub m_of (c.(m - 1) + 1) (c.(m) - c.(m - 1))) m
    done;
    { span; c_of; m_of; draw = Array.make max_draw_cur { d_cur = no_table } }
  end

let timeline t =
  let tl = Atomic.get t.timeline in
  if tl.span <> unbuilt then tl
  else
    Mutex.protect lock (fun () ->
        let tl = Atomic.get t.timeline in
        if tl.span <> unbuilt then tl
        else begin
          let tl = build_timeline t in
          Atomic.set t.timeline tl;
          tl
        end)

(* D_cur(T) at 2T and M(D_cur(T)) at 2T + 1, for T = 0 .. span; 0
   where the draw would take m past n_units (every real landing point
   is >= C(2) >= 1). *)
let build_draw tl t cur =
  let c = A.get tl.c_of and m_of = A.get tl.m_of in
  let d = table (2 * (tl.span + 1)) in
  for x = 0 to tl.span do
    let m = m_of x in
    if m + cur > t.n_units then begin
      A.set d (2 * x) 0;
      A.set d ((2 * x) + 1) 0
    end
    else begin
      let x' = max (c (m + cur) - (c m - x)) (c (m + cur - 1)) in
      A.set d (2 * x) x';
      A.set d ((2 * x) + 1) (m_of x')
    end
  done;
  d

let draw_table t cur =
  if cur < 1 || cur > max_draw_cur then
    invalid_arg
      (Printf.sprintf "Dkibam.Discretization.draw_table: cur = %d out of [1, %d]"
         cur max_draw_cur);
  let tl = timeline t in
  if tl.span < 0 then
    invalid_arg "Dkibam.Discretization.draw_table: no timeline (past the cap)";
  let d = tl.draw.(cur - 1).d_cur in
  if A.dim d > 0 then d
  else
    Mutex.protect lock (fun () ->
        let tl = Atomic.get t.timeline in
        let d = tl.draw.(cur - 1).d_cur in
        if A.dim d > 0 then d
        else begin
          let d = build_draw tl t cur in
          let draw = Array.copy tl.draw in
          draw.(cur - 1) <- { d_cur = d };
          Atomic.set t.timeline { tl with draw };
          d
        end)

let height_unit t = t.charge_unit /. t.params.Kibam.Params.c

let steps_of_minutes t minutes =
  let f = minutes /. t.time_step in
  let steps = int_of_float (Float.round f) in
  if Float.abs (f -. float_of_int steps) > 1e-6 *. Float.max 1.0 f then
    invalid_arg
      (Printf.sprintf
         "Dkibam.Discretization.steps_of_minutes: %g min is off the %g min grid"
         minutes t.time_step);
  steps

let minutes_of_steps t steps = float_of_int steps *. t.time_step
let charge_of_units t n = float_of_int n *. t.charge_unit
let is_empty t ~n ~m = (1000 - t.c_milli) * m >= t.c_milli * n
let available_milli_units t ~n ~m = (t.c_milli * n) - ((1000 - t.c_milli) * m)

let pp ppf t =
  Format.fprintf ppf
    "{ T = %g min; Gamma = %g A*min; N = %d; c_milli = %d; cell = %a }"
    t.time_step t.charge_unit t.n_units t.c_milli Kibam.Params.pp t.params
