type t = {
  load_time : int array;
  cur_times : int array;
  cur : int array;
  time_step : float;
  charge_unit : float;
}

exception Not_representable of string

let validate { load_time; cur_times; cur; time_step; charge_unit } =
  if time_step <= 0.0 || charge_unit <= 0.0 then
    invalid_arg "Loads.Arrays: discretization constants must be positive";
  let n = Array.length load_time in
  if Array.length cur_times <> n || Array.length cur <> n then
    invalid_arg "Loads.Arrays: the three arrays must have equal length";
  let prev = ref 0 in
  for y = 0 to n - 1 do
    if load_time.(y) <= !prev then
      invalid_arg "Loads.Arrays: load_time must be strictly increasing";
    prev := load_time.(y);
    if cur_times.(y) <= 0 then
      invalid_arg "Loads.Arrays: cur_times entries must be positive";
    if cur.(y) < 0 then invalid_arg "Loads.Arrays: cur entries must be >= 0"
  done

let of_arrays ~time_step ~charge_unit ~load_time ~cur_times ~cur =
  let t = { load_time; cur_times; cur; time_step; charge_unit } in
  validate t;
  t

let check_compatible t ~time_step ~charge_unit =
  let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max a b in
  if not (close t.time_step time_step && close t.charge_unit charge_unit) then
    invalid_arg
      (Printf.sprintf
         "Loads.Arrays: load encoded for T=%g Gamma=%g replayed at T=%g           Gamma=%g"
         t.time_step t.charge_unit time_step charge_unit)

(* One step of the Stern-Brocot descent towards x, at [depth], with
   mediant p/q: 1 moves the low bound up to p/q (it lies below x), -1
   moves the high bound down, 0 stops on a match and 2 past a cap. *)
let direction ~max_den ~x ~tol p q depth =
  if depth > 100_000 || q > max_den then 2
  else begin
    let v = float_of_int p /. float_of_int q in
    if Float.abs (v -. x) <= tol then 0 else if v < x then 1 else -1
  end

(* A run of [way] steps from mediant p/q at [depth]: the j-th step's
   mediant is (p + j dp) / (q + j dq), at depth + j.  Along a run the
   mediants, their denominators and their depths all move
   monotonically, so "step j goes [way]" holds for a prefix of the
   run; given that step 0 does, an exponential then binary search
   finds the least j >= 1 where it fails, in O(log j) steps. *)
let run_length ~max_den ~x ~tol p q dp dq depth way =
  let hi = ref 1 in
  while direction ~max_den ~x ~tol (p + (!hi * dp)) (q + (!hi * dq)) (depth + !hi) = way do
    hi := 2 * !hi
  done;
  let lo = ref (!hi / 2) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if direction ~max_den ~x ~tol (p + (mid * dp)) (q + (mid * dq)) (depth + mid) = way
    then lo := mid
    else hi := mid
  done;
  !hi

(* Smallest exact fraction p/q = x with q <= max_den, via Stern-Brocot
   descent over all of Q+, at most 100,000 steps deep; None when x is
   not such a fraction.  [run] counts the steps already taken in the
   current direction (up positive, down negative); once a run is 8
   steps long, the rest of it is jumped whole.  The path, and so the
   answer, is the step-by-step descent's. *)
let to_fraction ~max_den x =
  let tol = 1e-9 *. Float.max 1.0 x in
  let rec go lo_p lo_q hi_p hi_q depth run =
    let p = lo_p + hi_p and q = lo_q + hi_q in
    match direction ~max_den ~x ~tol p q depth with
    | 0 -> Some (p, q)
    | 1 ->
        let j =
          if run < 8 then 1 else run_length ~max_den ~x ~tol p q hi_p hi_q depth 1
        in
        go (lo_p + (j * hi_p)) (lo_q + (j * hi_q)) hi_p hi_q (depth + j)
          ((if run > 0 then run else 0) + j)
    | -1 ->
        let j =
          if run > -8 then 1
          else run_length ~max_den ~x ~tol p q lo_p lo_q depth (-1)
        in
        go lo_p lo_q (hi_p + (j * lo_p)) (hi_q + (j * lo_q)) (depth + j)
          ((if run < 0 then run else 0) - j)
    | _ -> None
  in
  if x <= 0.0 then None else go 0 1 1 0 0 0

let round_steps ~time_step duration =
  let steps_f = duration /. time_step in
  let steps = int_of_float (Float.round steps_f) in
  if Float.abs (steps_f -. float_of_int steps) > 1e-6 *. Float.max 1.0 steps_f
  then
    raise
      (Not_representable
         (Printf.sprintf "epoch duration %g is not a multiple of the time step %g"
            duration time_step));
  steps

let make ~time_step ~charge_unit load =
  if time_step <= 0.0 then invalid_arg "Loads.Arrays.make: time_step <= 0";
  if charge_unit <= 0.0 then invalid_arg "Loads.Arrays.make: charge_unit <= 0";
  let encode_epoch (e : Epoch.epoch) =
    match e with
    | Epoch.Idle d ->
        let steps = round_steps ~time_step d in
        (steps, steps, 0)
    | Epoch.Job { current; duration } ->
        let steps = round_steps ~time_step duration in
        (* eq. (7): I = cur * Gamma / (cur_times * T), so
           cur / cur_times = I * T / Gamma. *)
        let ratio = current *. time_step /. charge_unit in
        let cur, cur_times =
          match to_fraction ~max_den:10_000 ratio with
          | Some (p, q) -> (p, q)
          | None ->
              raise
                (Not_representable
                   (Printf.sprintf
                      "current %g A has no exact cur/cur_times encoding at T=%g \
                       Gamma=%g"
                      current time_step charge_unit))
        in
        (steps, cur_times, cur)
  in
  let encoded = List.map encode_epoch (Epoch.epochs load) in
  let n = List.length encoded in
  if n = 0 then invalid_arg "Loads.Arrays.make: empty load";
  let load_time = Array.make n 0
  and cur_times = Array.make n 0
  and cur = Array.make n 0 in
  let clock = ref 0 in
  List.iteri
    (fun y (steps, ct, c) ->
      clock := !clock + steps;
      load_time.(y) <- !clock;
      cur_times.(y) <- ct;
      cur.(y) <- c)
    encoded;
  let t = { load_time; cur_times; cur; time_step; charge_unit } in
  validate t;
  t

let make_result ?input ~time_step ~charge_unit load =
  if time_step <= 0.0 then
    Error
      (Guard.Error.make ~subsystem:"loads.arrays" ?input ~field:"time_step"
         ~value:(string_of_float time_step)
         ~accepted:"a positive number of minutes" "time_step out of range")
  else if charge_unit <= 0.0 then
    Error
      (Guard.Error.make ~subsystem:"loads.arrays" ?input ~field:"charge_unit"
         ~value:(string_of_float charge_unit)
         ~accepted:"a positive charge quantum (A*min)"
         "charge_unit out of range")
  else
    match make ~time_step ~charge_unit load with
    | t -> Ok t
    | exception Not_representable msg ->
        Error
          (Guard.Error.make ~subsystem:"loads.arrays" ?input ~field:"load"
             ~value:msg
             ~accepted:
               "epoch durations on the time grid and currents with an exact \
                cur/cur_times <= 10000 encoding — adjust the load, \
                time_step or charge_unit"
             "load is not representable at this discretization")

let epoch_count t = Array.length t.load_time

let current t y =
  float_of_int t.cur.(y) *. t.charge_unit
  /. (float_of_int t.cur_times.(y) *. t.time_step)

let epoch_steps t y =
  if y = 0 then t.load_time.(0) else t.load_time.(y) - t.load_time.(y - 1)

let pp ppf t =
  Format.fprintf ppf "@[<v>load_time = [|%a|]@,cur_times = [|%a|]@,cur = [|%a|]@]"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_int)
    (Array.to_seq t.load_time)
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_int)
    (Array.to_seq t.cur_times)
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_int)
    (Array.to_seq t.cur)
