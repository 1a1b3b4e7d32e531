(* Random-environment drain generator — see the .mli for the model and
   the draw-order contract. *)

let fail ?field ?value ?accepted fmt =
  Printf.ksprintf
    (fun what ->
      Guard.Error.raise_exn
        (Guard.Error.make ~subsystem:"stoch.env" ?field ?value ?accepted what))
    fmt

type t = { levels : float array; mean_dwell : float; slot : float; slots : int }

let make ?(levels = [| 0.0; 0.25; 0.5 |]) ?(mean_dwell = 4.0) ?(slot = 1.0)
    ~slots () =
  if Array.length levels < 2 then
    fail ~field:"levels" ~accepted:"at least two distinct drain levels"
      "a random environment needs somewhere to move";
  Array.iter
    (fun l ->
      if not (l >= 0.0) then
        fail ~field:"levels" ~value:(string_of_float l)
          ~accepted:"non-negative amperes (0 = idle)"
          "drain level must be non-negative")
    levels;
  if not (Array.exists (fun l -> l > 0.0) levels) then
    fail ~field:"levels" ~accepted:"at least one strictly positive level"
      "an all-idle environment drains nothing";
  (* Distinct levels make consecutive epochs always differ, so the
     compiled trace never needs idle merging and round-trips through
     Loads.Spec exactly. *)
  Array.iteri
    (fun i li ->
      Array.iteri
        (fun j lj ->
          if i < j && li = lj then
            fail ~field:"levels" ~value:(string_of_float li)
              ~accepted:"pairwise distinct levels" "duplicate drain level")
        levels)
    levels;
  if not (mean_dwell >= 1.0) then
    fail ~field:"mean_dwell" ~value:(string_of_float mean_dwell)
      ~accepted:"a mean dwell of at least one slot" "dwell below one slot";
  if not (slot > 0.0) then
    fail ~field:"slot" ~value:(string_of_float slot)
      ~accepted:"a positive duration in minutes" "slot duration must be positive";
  if slots < 1 then
    fail ~field:"slots" ~value:(string_of_int slots)
      ~accepted:"an integer >= 1" "need at least one slot";
  { levels = Array.copy levels; mean_dwell; slot; slots }

(* The chain, realized once: sojourn [i] < [count] holds level
   [states.(i)] for [dwells.(i)] slots.  Draw order (part of the
   contract, see .mli): one [int] for the initial state, then per
   sojourn one [float] for the dwell and one [int] for the next
   state. *)
let realize t ~seed =
  let g = Prng.Splitmix.create seed in
  let n = Array.length t.levels in
  let states = Array.make t.slots 0 and dwells = Array.make t.slots 0 in
  let state = ref (Prng.Splitmix.int g n) in
  let remaining = ref t.slots and count = ref 0 in
  while !remaining > 0 do
    let dwell =
      if t.mean_dwell <= 1.0 then 1
      else begin
        (* geometric with success probability 1/mean_dwell, by
           inversion of one uniform draw: u in [0, 1) keeps both logs
           finite and the quotient bounded *)
        let u = Prng.Splitmix.float g 1.0 in
        1
        + int_of_float
            (Float.log1p (-.u) /. Float.log1p (-1.0 /. t.mean_dwell))
      end
    in
    let dwell = min dwell !remaining in
    remaining := !remaining - dwell;
    states.(!count) <- !state;
    dwells.(!count) <- dwell;
    incr count;
    (* uniform among the other states — levels are distinct, so the
       next epoch never merges with this one *)
    let j = Prng.Splitmix.int g (n - 1) in
    state := if j >= !state then j + 1 else j
  done;
  (!count, states, dwells)

(* The realization's epochs, in order: one per sojourn, idle at level
   0. *)
let iter_epochs t (count, states, dwells) ~idle ~job =
  for i = 0 to count - 1 do
    let level = t.levels.(states.(i)) in
    let duration = float_of_int dwells.(i) *. t.slot in
    if level > 0.0 then job level duration else idle duration
  done

let sample t ~seed =
  let rev = ref [] in
  iter_epochs t (realize t ~seed)
    ~idle:(fun d -> rev := Loads.Epoch.Idle d :: !rev)
    ~job:(fun current duration ->
      rev := Loads.Epoch.Job { current; duration } :: !rev);
  Loads.Epoch.of_epochs (List.rev !rev)

let arrays t ~seed ~time_step ~charge_unit =
  let ((count, _, _) as r) = realize t ~seed in
  let b = Loads.Arrays.builder ~capacity:count ~time_step ~charge_unit () in
  iter_epochs t r ~idle:(Loads.Arrays.add_idle b)
    ~job:(fun current duration -> Loads.Arrays.add_job b ~current ~duration);
  Loads.Arrays.finish b

let spec t ~seed = Loads.Spec.to_string (sample t ~seed)

let pp ppf t =
  Format.fprintf ppf
    "env: levels [%s] A, mean dwell %g slots, %d slots of %g min"
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%g") t.levels)))
    t.mean_dwell t.slots t.slot
