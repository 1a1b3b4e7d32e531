type t = {
  disc : Dkibam.Discretization.t;
  batteries : Dkibam.Battery.t array;
  dead : bool array;
}

let create ?initial ~n_batteries disc =
  if n_batteries < 1 then invalid_arg "Sched.Bank: need >= 1 battery";
  let batteries =
    match initial with
    | Some a ->
        if Array.length a <> n_batteries then
          invalid_arg "Sched.Bank: initial length mismatch";
        Array.copy a
    | None -> Array.init n_batteries (fun _ -> Dkibam.Battery.full disc)
  in
  { disc; batteries; dead = Array.make n_batteries false }

let of_parts disc ~batteries ~dead =
  if Array.length batteries <> Array.length dead then
    invalid_arg "Sched.Bank.of_parts: length mismatch";
  if Array.length batteries = 0 then invalid_arg "Sched.Bank: need >= 1 battery";
  { disc; batteries = Array.copy batteries; dead = Array.copy dead }

let copy t =
  { t with batteries = Array.copy t.batteries; dead = Array.copy t.dead }

let disc t = t.disc
let size t = Array.length t.batteries
let battery t i = t.batteries.(i)
let snapshot t = Array.copy t.batteries
let is_dead t i = t.dead.(i)

let alive t =
  List.filter (fun i -> not t.dead.(i)) (List.init (size t) Fun.id)

let any_alive t = Array.exists not t.dead
let all_dead t = Array.for_all Fun.id t.dead

let tick_all t k =
  Array.iteri
    (fun i b -> t.batteries.(i) <- Dkibam.Battery.tick_many t.disc k b)
    t.batteries

let draw_from t i ~cur =
  let b = t.batteries.(i) in
  let fatal =
    b.Dkibam.Battery.n_gamma < cur
    ||
    let after = Dkibam.Battery.draw t.disc ~cur b in
    t.batteries.(i) <- after;
    Dkibam.Battery.is_empty t.disc after
  in
  if fatal then t.dead.(i) <- true;
  fatal

let stranded_units batteries =
  Array.fold_left
    (fun acc (b : Dkibam.Battery.t) -> acc + b.n_gamma)
    0 batteries

let stranded t = stranded_units t.batteries

type serve_outcome = Completed | Died of int

(* The serving battery runs the whole span in one kernel call; every
   other battery (dead ones keep recovering) then advances once by the
   span's elapsed steps, which recovery's composition law makes exactly
   the per-draw interleaving. *)
let serve t ~b (sch : Loads.Cursor.schedule) =
  let c = Dkibam.Battery.to_cell t.batteries.(b) in
  let fatal =
    Dkibam.Kernel.serve t.disc c ~ct:sch.ct ~cur:sch.cur ~draws:sch.draws
      ~rest:sch.rest
  in
  t.batteries.(b) <- Dkibam.Battery.of_cell c;
  let steps =
    Dkibam.Kernel.elapsed ~ct:sch.ct ~draws:sch.draws ~rest:sch.rest fatal
  in
  for i = 0 to Array.length t.batteries - 1 do
    if i <> b then
      t.batteries.(i) <- Dkibam.Battery.tick_many t.disc steps t.batteries.(i)
  done;
  if fatal = 0 then Completed
  else begin
    t.dead.(b) <- true;
    Died steps
  end
