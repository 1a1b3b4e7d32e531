(* One flat [int array], four ints per battery: the memo key's block
   layout (see bank.mli).  [scratch] is the cell every transition runs
   on; each bank owns its own, so copies never share state. *)

let width = 4

type t = {
  disc : Dkibam.Discretization.t;
  cells : int array;
  scratch : Dkibam.Kernel.cell;
}

let fresh_cell () = { Dkibam.Kernel.n = 0; m = 0; clock = 0 }

let build disc batteries dead =
  let n = Array.length batteries in
  let cells = Array.make (width * n) 0 in
  Array.iteri
    (fun i (b : Dkibam.Battery.t) ->
      cells.(width * i) <- b.n_gamma;
      cells.((width * i) + 1) <- b.m_delta;
      cells.((width * i) + 2) <- b.recov_clock;
      cells.((width * i) + 3) <- (if dead.(i) then 1 else 0))
    batteries;
  { disc; cells; scratch = fresh_cell () }

let create ?initial ~n_batteries disc =
  if n_batteries < 1 then invalid_arg "Sched.Bank: need >= 1 battery";
  let batteries =
    match initial with
    | Some a ->
        if Array.length a <> n_batteries then
          invalid_arg "Sched.Bank: initial length mismatch";
        a
    | None -> Array.make n_batteries (Dkibam.Battery.full disc)
  in
  build disc batteries (Array.make n_batteries false)

let of_parts disc ~batteries ~dead =
  if Array.length batteries <> Array.length dead then
    invalid_arg "Sched.Bank.of_parts: length mismatch";
  if Array.length batteries = 0 then invalid_arg "Sched.Bank: need >= 1 battery";
  build disc batteries dead

let copy t = { t with cells = Array.copy t.cells; scratch = fresh_cell () }
let disc t = t.disc
let size t = Array.length t.cells / width
let n_gamma t i = t.cells.(width * i)
let m_delta t i = t.cells.((width * i) + 1)
let recov_clock t i = t.cells.((width * i) + 2)
let is_dead t i = t.cells.((width * i) + 3) = 1

let battery t i =
  Dkibam.Battery.of_cell
    { Dkibam.Kernel.n = n_gamma t i; m = m_delta t i; clock = recov_clock t i }

let snapshot t = Array.init (size t) (battery t)

let alive t =
  let rec from i acc =
    if i < 0 then acc else from (i - 1) (if is_dead t i then acc else i :: acc)
  in
  from (size t - 1) []

let any_alive t =
  let i = ref 0 and n = size t in
  while !i < n && is_dead t !i do
    incr i
  done;
  !i < n

let all_dead t = not (any_alive t)

(* Battery [i] into the scratch cell, and back. *)
let load t i =
  let c = t.scratch in
  c.n <- n_gamma t i;
  c.m <- m_delta t i;
  c.clock <- recov_clock t i;
  c

let store t i =
  let c = t.scratch in
  t.cells.(width * i) <- c.n;
  t.cells.((width * i) + 1) <- c.m;
  t.cells.((width * i) + 2) <- c.clock

let kill t i = t.cells.((width * i) + 3) <- 1

let tick_all t k =
  for i = 0 to size t - 1 do
    Dkibam.Kernel.tick t.disc (load t i) k;
    store t i
  done

let draw_from t i ~cur =
  if cur < 1 then invalid_arg "Sched.Bank.draw_from: cur must be >= 1";
  let fatal =
    n_gamma t i < cur
    ||
    let c = load t i in
    Dkibam.Kernel.draw t.disc c ~cur;
    store t i;
    Dkibam.Kernel.is_empty t.disc ~n:c.n ~m:c.m
  in
  if fatal then kill t i;
  fatal

let stranded_units batteries =
  Array.fold_left
    (fun acc (b : Dkibam.Battery.t) -> acc + b.n_gamma)
    0 batteries

let stranded t =
  let s = ref 0 in
  for i = 0 to size t - 1 do
    s := !s + n_gamma t i
  done;
  !s

(* Lexicographic order of the blocks at [i] and [j] of [a]: the order
   polymorphic [compare] gives the tuples [(n, m, clock, dead)]. *)
let block_lt (a : int array) i j =
  let x = a.(i) and y = a.(j) in
  x < y
  || x = y
     &&
     let x = a.(i + 1) and y = a.(j + 1) in
     x < y
     || x = y
        &&
        let x = a.(i + 2) and y = a.(j + 2) in
        x < y || (x = y && a.(i + 3) < a.(j + 3))

let key t ~head =
  let n = size t in
  let k = Array.make (head + (width * n)) 0 in
  Array.blit t.cells 0 k head (width * n);
  (* insertion sort of the blocks, in place: banks hold 1-6 batteries *)
  for i = 1 to n - 1 do
    let j = ref i in
    while
      !j > 0 && block_lt k (head + (width * !j)) (head + (width * (!j - 1)))
    do
      let a = head + (width * !j) in
      let b = a - width in
      for f = 0 to width - 1 do
        let v = k.(a + f) in
        k.(a + f) <- k.(b + f);
        k.(b + f) <- v
      done;
      decr j
    done
  done;
  k

type serve_outcome = Completed | Died of int

(* The serving battery runs the whole span in one kernel call; every
   other battery (dead ones keep recovering) then advances once by the
   span's elapsed steps, which recovery's composition law makes exactly
   the per-draw interleaving. *)
let serve ?cache t ~b (sch : Loads.Cursor.schedule) =
  let fatal =
    match cache with
    | None ->
        Dkibam.Kernel.serve t.disc (load t b) ~ct:sch.ct ~cur:sch.cur
          ~draws:sch.draws ~rest:sch.rest
    | Some k ->
        if Dkibam.Span_cache.disc k != t.disc then
          invalid_arg "Sched.Bank.serve: the cache serves another discretization";
        Dkibam.Span_cache.serve k (load t b) ~ct:sch.ct ~cur:sch.cur
          ~draws:sch.draws ~rest:sch.rest
  in
  store t b;
  let steps =
    Dkibam.Kernel.elapsed ~ct:sch.ct ~draws:sch.draws ~rest:sch.rest fatal
  in
  for i = 0 to size t - 1 do
    if i <> b then begin
      Dkibam.Kernel.tick t.disc (load t i) steps;
      store t i
    end
  done;
  if fatal = 0 then Completed
  else begin
    kill t b;
    Died steps
  end
