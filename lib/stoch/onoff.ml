(* Markov-modulated on/off load generator — see the .mli for the model
   and the draw-order contract. *)

let fail ?field ?value ?accepted fmt =
  Printf.ksprintf
    (fun what ->
      Guard.Error.raise_exn
        (Guard.Error.make ~subsystem:"stoch.onoff" ?field ?value ?accepted what))
    fmt

type t = {
  p_on : float;
  p_off : float;
  currents : float array;
  slot : float;
  slots : int;
}

let make ?(p_on = 0.5) ?(p_off = 0.5) ?(currents = [| 0.25; 0.5 |])
    ?(slot = 1.0) ~slots () =
  let prob name v =
    if not (v >= 0.0 && v <= 1.0) then
      fail ~field:name ~value:(string_of_float v)
        ~accepted:"a probability in [0, 1]" "%s is not a probability" name
  in
  prob "p_on" p_on;
  prob "p_off" p_off;
  if p_on = 0.0 && p_off = 0.0 then
    fail ~field:"p_on, p_off" ~value:"0, 0"
      ~accepted:"at least one strictly positive transition probability"
      "the on/off chain has no stationary distribution";
  if not (slot > 0.0) then
    fail ~field:"slot" ~value:(string_of_float slot)
      ~accepted:"a positive duration in minutes" "slot duration must be positive";
  if slots < 1 then
    fail ~field:"slots" ~value:(string_of_int slots)
      ~accepted:"an integer >= 1" "need at least one slot";
  if Array.length currents = 0 then
    fail ~field:"currents" ~accepted:"a non-empty array of positive amperes"
      "no job currents";
  Array.iter
    (fun c ->
      if not (c > 0.0) then
        fail ~field:"currents" ~value:(string_of_float c)
          ~accepted:"strictly positive amperes" "job current must be positive")
    currents;
  { p_on; p_off; currents = Array.copy currents; slot; slots }

let stationary_on t = t.p_on /. (t.p_on +. t.p_off)

(* The chain, realized once: entry [i] is the index in [currents] of
   slot [i]'s current, or -1 for an off slot.  The draw order is part
   of the reproducibility contract (.mli): one float for the
   stationary initial state, one [int] (a [choose]) at each burst
   start (including slot 0 when it starts on), one float per slot
   boundary for the transition. *)
let realize t ~seed =
  let g = Prng.Splitmix.create seed in
  let n = Array.length t.currents in
  let by_slot = Array.make t.slots (-1) in
  let on = ref (Prng.Splitmix.float g 1.0 < stationary_on t) in
  let current = ref (if !on then Prng.Splitmix.int g n else -1) in
  for i = 0 to t.slots - 1 do
    if !on then by_slot.(i) <- !current;
    if i < t.slots - 1 then
      if !on then begin
        if Prng.Splitmix.float g 1.0 < t.p_off then on := false
      end
      else if Prng.Splitmix.float g 1.0 < t.p_on then begin
        on := true;
        current := Prng.Splitmix.int g n
      end
  done;
  by_slot

(* The realization's epochs, in order.  Every on slot is its own job
   epoch (a scheduling point per slot, like the paper's IL loads); off
   runs merge into one idle whose duration is computed as count * slot
   — a single multiplication, so the symbolic load round-trips through
   Loads.Spec exactly whenever the products print exactly (the default
   slot does). *)
let iter_epochs t by_slot ~idle ~job =
  let idle_run = ref 0 in
  let flush_idle () =
    if !idle_run > 0 then begin
      idle (float_of_int !idle_run *. t.slot);
      idle_run := 0
    end
  in
  Array.iter
    (fun l ->
      if l >= 0 then begin
        flush_idle ();
        job t.currents.(l) t.slot
      end
      else incr idle_run)
    by_slot;
  flush_idle ()

let sample t ~seed =
  let rev = ref [] in
  iter_epochs t (realize t ~seed)
    ~idle:(fun d -> rev := Loads.Epoch.Idle d :: !rev)
    ~job:(fun current duration ->
      rev := Loads.Epoch.Job { current; duration } :: !rev);
  Loads.Epoch.of_epochs (List.rev !rev)

let arrays t ~seed ~time_step ~charge_unit =
  let b = Loads.Arrays.builder ~capacity:t.slots ~time_step ~charge_unit () in
  iter_epochs t (realize t ~seed) ~idle:(Loads.Arrays.add_idle b)
    ~job:(fun current duration -> Loads.Arrays.add_job b ~current ~duration);
  Loads.Arrays.finish b

let spec t ~seed = Loads.Spec.to_string (sample t ~seed)

let pp ppf t =
  Format.fprintf ppf
    "onoff: p_on %g, p_off %g (stationary on %.3f), currents [%s] A, %d \
     slots of %g min"
    t.p_on t.p_off (stationary_on t)
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%g") t.currents)))
    t.slots t.slot
