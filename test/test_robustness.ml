(* Property tests over randomized loads: the discharge kernel's
   conservation laws (drawn charge, no negative wells), death
   monotonicity in the load, and chaos-perturbed loads staying inside
   their analytic dominance bounds.

   Seeding follows the CI chaos protocol: the seed comes from
   CHAOS_SEED when set (so a CI failure reproduces locally with
   [CHAOS_SEED=... dune runtest]) and every failure message logs it. *)

let disc = Dkibam.Discretization.paper_b1
let seed = Guard.Chaos.seed_from_env ~default:20260806L ()

(* each test derives its own stream so tests stay independent of
   execution order *)
let gen salt = Prng.Splitmix.create (Int64.add seed salt)

let failf fmt = Printf.ksprintf (fun m -> Alcotest.failf "[seed %Ld] %s" seed m) fmt

(* ------------------------------------------------------------------ *)
(* Random loads                                                        *)
(* ------------------------------------------------------------------ *)

(* general random load: currents on the 0.01 A grid (arbitrary draw
   cadences), durations and idles on the 0.1 min grid *)
let random_load g ~jobs =
  Loads.Epoch.concat
    (List.concat
       (List.init jobs (fun _ ->
            let current = 0.01 *. float_of_int (1 + Prng.Splitmix.int g 60) in
            let duration = 0.1 *. float_of_int (1 + Prng.Splitmix.int g 20) in
            let idle = 0.1 *. float_of_int (Prng.Splitmix.int g 6) in
            Loads.Epoch.job ~current ~duration
            :: (if idle > 0.0 then [ Loads.Epoch.idle idle ] else []))))

let arrays load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load

(* integer-amp job parameters: whole amps draw whole charge units every
   step, so two loads built from the same parameters with pointwise
   ordered amps share their draw instants exactly — the clean setting
   for dominance claims *)
let random_amp_params g ~jobs =
  List.init jobs (fun _ ->
      let amps = 1 + Prng.Splitmix.int g 3 in
      let duration = 0.2 *. float_of_int (1 + Prng.Splitmix.int g 5) in
      let idle = 0.1 *. float_of_int (Prng.Splitmix.int g 4) in
      (amps, duration, idle))

let load_of_amp_params ~amp_of params =
  Loads.Epoch.concat
    (List.concat_map
       (fun (amps, duration, idle) ->
         Loads.Epoch.job ~current:(float_of_int (amp_of amps)) ~duration
         :: (if idle > 0.0 then [ Loads.Epoch.idle idle ] else []))
       params)

let lifetime_steps what a =
  let o =
    Sched.Simulator.simulate ~n_batteries:2 ~policy:Sched.Policy.Best_of disc a
  in
  match o.Sched.Simulator.lifetime_steps with
  | Some s -> s
  | None -> failf "%s: batteries survived the load (extend the horizon)" what

(* ------------------------------------------------------------------ *)
(* Cursor: cadence arithmetic conserves the encoded demand             *)
(* ------------------------------------------------------------------ *)

let test_cursor_conservation () =
  let g = gen 1L in
  for round = 1 to 25 do
    let a = arrays (random_load g ~jobs:(3 + Prng.Splitmix.int g 15)) in
    let c = Loads.Cursor.make a in
    let n = Loads.Cursor.epoch_count c in
    let total_steps = ref 0 in
    for y = 0 to n - 1 do
      let len = Loads.Cursor.epoch_len c y in
      total_steps := !total_steps + len;
      if Loads.Cursor.epoch_end c y <> !total_steps then
        failf "round %d epoch %d: epoch_end disagrees with summed lengths" round y;
      let sch = Loads.Cursor.schedule c y in
      if Loads.Cursor.is_idle c y then begin
        if sch.Loads.Cursor.draws <> 0 || sch.rest <> len then
          failf "round %d epoch %d: idle epoch has a draw schedule" round y
      end
      else begin
        (* the cadence identity: draws * ct + rest = len, rest < ct *)
        if sch.draws <> len / sch.ct || sch.rest <> len mod sch.ct then
          failf "round %d epoch %d: schedule %d draws/ct %d/rest %d vs len %d"
            round y sch.draws sch.ct sch.rest len;
        if Loads.Cursor.draw_units c y <> sch.draws * sch.cur then
          failf "round %d epoch %d: draw_units breaks conservation" round y;
        (* restarting the cadence clock at offset 0 changes nothing *)
        if Loads.Cursor.schedule_from c y ~local:0 <> sch then
          failf "round %d epoch %d: schedule_from 0 <> schedule" round y;
        let local = Prng.Splitmix.int g len in
        let s2 = Loads.Cursor.schedule_from c y ~local in
        if s2.ct <> sch.ct || s2.cur <> sch.cur
           || s2.draws <> (len - local) / sch.ct
        then failf "round %d epoch %d: schedule_from %d inconsistent" round y local
      end
    done;
    if Loads.Cursor.total_steps c <> !total_steps then
      failf "round %d: total_steps disagrees" round;
    (* the suffix dot-product agrees with direct summation *)
    for y = 0 to n - 1 do
      let direct = ref 0 in
      for z = y + 1 to n - 1 do
        direct := !direct + Loads.Cursor.draw_units c z
      done;
      if Loads.Cursor.draw_units_after c y <> !direct then
        failf "round %d epoch %d: draw_units_after breaks conservation" round y
    done
  done

(* ------------------------------------------------------------------ *)
(* Bank: drawn charge is conserved, wells never go negative            *)
(* ------------------------------------------------------------------ *)

let check_wells what bank =
  for i = 0 to Sched.Bank.size bank - 1 do
    let b = Sched.Bank.battery bank i in
    if b.Dkibam.Battery.n_gamma < 0 || b.Dkibam.Battery.m_delta < 0 then
      failf "%s: battery %d has a negative well (n=%d m=%d)" what i
        b.Dkibam.Battery.n_gamma b.Dkibam.Battery.m_delta
  done

let test_bank_draw_conservation () =
  let g = gen 2L in
  for round = 1 to 50 do
    let bank = Sched.Bank.create ~n_batteries:2 disc in
    let steps = ref 0 in
    while Sched.Bank.any_alive bank && !steps < 2000 do
      incr steps;
      Sched.Bank.tick_all bank (Prng.Splitmix.int g 20);
      match Sched.Bank.alive bank with
      | [] -> ()
      | alive ->
          let b = List.nth alive (Prng.Splitmix.int g (List.length alive)) in
          let cur = 1 + Prng.Splitmix.int g 5 in
          let held = (Sched.Bank.battery bank b).Dkibam.Battery.n_gamma in
          let before = Sched.Bank.stranded bank in
          let fatal = Sched.Bank.draw_from bank b ~cur in
          let after = Sched.Bank.stranded bank in
          let label = Printf.sprintf "round %d step %d" round !steps in
          check_wells label bank;
          if held < cur then begin
            (* under-charged: the draw is fatal and nothing moves *)
            if not fatal then failf "%s: under-charged draw not fatal" label;
            if after <> before then failf "%s: under-charged draw moved charge" label
          end
          else if before - after <> cur then
            failf "%s: drew %d units but stranded moved %d" label cur (before - after);
          if fatal && not (Sched.Bank.is_dead bank b) then
            failf "%s: fatal draw left the battery alive" label
    done
  done

let test_bank_serve_conservation () =
  let g = gen 3L in
  for round = 1 to 25 do
    let a = arrays (random_load g ~jobs:(5 + Prng.Splitmix.int g 10)) in
    let c = Loads.Cursor.make a in
    let bank = Sched.Bank.create ~n_batteries:2 disc in
    (try
       for y = 0 to Loads.Cursor.epoch_count c - 1 do
         let sch = Loads.Cursor.schedule c y in
         match Sched.Bank.alive bank with
         | [] -> raise Exit
         | alive ->
             let b = List.nth alive (Prng.Splitmix.int g (List.length alive)) in
             let before = Sched.Bank.stranded bank in
             let outcome = Sched.Bank.serve bank ~b sch in
             let drained = before - Sched.Bank.stranded bank in
             let label = Printf.sprintf "round %d epoch %d" round y in
             check_wells label bank;
             (match outcome with
             | Sched.Bank.Completed ->
                 (* a completed span serves its whole demand, exactly *)
                 if drained <> sch.Loads.Cursor.draws * sch.cur then
                   failf "%s: completed span drained %d of %d units" label drained
                     (sch.draws * sch.cur)
             | Sched.Bank.Died _ ->
                 if not (Sched.Bank.is_dead bank b) then
                   failf "%s: Died but battery alive" label;
                 if drained < 0 || drained > sch.draws * sch.cur then
                   failf "%s: died span drained %d outside [0, %d]" label drained
                     (sch.draws * sch.cur))
       done
     with Exit -> ())
  done

(* ------------------------------------------------------------------ *)
(* Flat bank: the layout round-trips, copies are independent, and the  *)
(* packed memo key equals the tuple-sorted one                         *)
(* ------------------------------------------------------------------ *)

(* A bank of 1-6 batteries drawn from a pool of three states, so equal
   (n, m, clock) blocks, alive and dead, are common. *)
let random_parts g =
  let big = disc.Dkibam.Discretization.n_units in
  let pool =
    Array.init 3 (fun _ ->
        let n = Prng.Splitmix.int g (big + 1) in
        let m = Prng.Splitmix.int g (big - n + 1) in
        Dkibam.Battery.make disc ~n_gamma:n ~m_delta:m
          ~recov_clock:(Prng.Splitmix.int g 50))
  in
  let size = 1 + Prng.Splitmix.int g 6 in
  ( Array.init size (fun _ -> pool.(Prng.Splitmix.int g 3)),
    Array.init size (fun _ -> Prng.Splitmix.int g 3 = 0) )

(* The memo key as the search built it before the flat bank: [y; local],
   then the (n, m, clock, dead) tuples sorted by polymorphic [compare].
   Checkpoints and shared-memo keys hold these bytes. *)
let reference_key ~y ~local (batteries : Dkibam.Battery.t array) dead =
  let cells =
    Array.mapi
      (fun i (b : Dkibam.Battery.t) ->
        (b.n_gamma, b.m_delta, b.recov_clock, dead.(i)))
      batteries
  in
  Array.sort compare cells;
  let key = Array.make (2 + (4 * Array.length cells)) 0 in
  key.(0) <- y;
  key.(1) <- local;
  Array.iteri
    (fun i (n, m, clock, d) ->
      key.(2 + (4 * i)) <- n;
      key.(3 + (4 * i)) <- m;
      key.(4 + (4 * i)) <- clock;
      key.(5 + (4 * i)) <- (if d then 1 else 0))
    cells;
  key

let test_bank_key_matches_tuple_sort () =
  let g = gen 7L in
  let tied = ref 0 in
  for round = 1 to 3000 do
    let batteries, dead = random_parts g in
    let bank = Sched.Bank.of_parts disc ~batteries ~dead in
    let y = Prng.Splitmix.int g 1000 and local = Prng.Splitmix.int g 100 in
    let expected = reference_key ~y ~local batteries dead in
    let key = Sched.Bank.key bank ~head:2 in
    key.(0) <- y;
    key.(1) <- local;
    if key <> expected then
      failf "round %d: packed key [%s] <> tuple sort [%s]" round
        (String.concat ";" (Array.to_list (Array.map string_of_int key)))
        (String.concat ";" (Array.to_list (Array.map string_of_int expected)));
    (* a longer head leaves its slots to the caller and shifts the
       blocks, as the planner's frontier-prefixed key needs *)
    let framed = Sched.Bank.key bank ~head:3 in
    if
      Array.sub framed 0 3 <> [| 0; 0; 0 |]
      || Array.sub framed 3 (Array.length framed - 3)
         <> Array.sub expected 2 (Array.length expected - 2)
    then failf "round %d: head-3 key misplaces the blocks" round;
    let n = Array.length batteries in
    if
      List.exists
        (fun i ->
          List.exists
            (fun j -> Dkibam.Battery.equal batteries.(i) batteries.(j))
            (List.init (n - i - 1) (fun k -> i + k + 1)))
        (List.init n Fun.id)
    then incr tied
  done;
  if !tied < 500 then failf "only %d of 3000 banks had equal blocks" !tied

let check_bank what bank (batteries : Dkibam.Battery.t array) dead =
  let n = Array.length batteries in
  if Sched.Bank.size bank <> n then failf "%s: size" what;
  Array.iteri
    (fun i (b : Dkibam.Battery.t) ->
      if
        not
          (Dkibam.Battery.equal (Sched.Bank.battery bank i) b
          && Sched.Bank.n_gamma bank i = b.n_gamma
          && Sched.Bank.m_delta bank i = b.m_delta
          && Sched.Bank.recov_clock bank i = b.recov_clock
          && Sched.Bank.is_dead bank i = dead.(i))
      then failf "%s: battery %d does not round-trip" what i)
    batteries;
  if
    not
      (Array.for_all2 Dkibam.Battery.equal (Sched.Bank.snapshot bank) batteries)
  then failf "%s: snapshot" what;
  if
    Sched.Bank.alive bank
    <> List.filter (fun i -> not dead.(i)) (List.init n Fun.id)
  then failf "%s: alive" what;
  if Sched.Bank.any_alive bank <> Array.exists not dead then
    failf "%s: any_alive" what;
  if Sched.Bank.all_dead bank <> Array.for_all Fun.id dead then
    failf "%s: all_dead" what;
  if Sched.Bank.stranded bank <> Sched.Bank.stranded_units batteries then
    failf "%s: stranded" what

let test_bank_round_trip () =
  let g = gen 8L in
  for round = 1 to 500 do
    let what = Printf.sprintf "round %d" round in
    let batteries, dead = random_parts g in
    let n = Array.length batteries in
    let bank = Sched.Bank.of_parts disc ~batteries ~dead in
    check_bank what bank batteries dead;
    check_bank (what ^ " create")
      (Sched.Bank.create ~initial:batteries ~n_batteries:n disc)
      batteries (Array.make n false);
    (* of_parts copied its inputs *)
    let batteries' = Array.copy batteries and dead' = Array.copy dead in
    batteries.(0) <- Dkibam.Battery.full disc;
    dead.(0) <- not dead.(0);
    check_bank (what ^ " after its inputs changed") bank batteries' dead';
    (* a copy and its source share no state: change each, the other
       holds *)
    let c = Sched.Bank.copy bank in
    let cur = 1 + Prng.Splitmix.int g 40 in
    Sched.Bank.tick_all c (1 + Prng.Splitmix.int g 500);
    List.iter
      (fun b -> ignore (Sched.Bank.draw_from c b ~cur : bool))
      (Sched.Bank.alive c);
    check_bank (what ^ " source after its copy changed") bank batteries' dead';
    let c_batteries = Sched.Bank.snapshot c
    and c_dead = Array.init n (Sched.Bank.is_dead c) in
    Sched.Bank.tick_all bank (1 + Prng.Splitmix.int g 500);
    (match Sched.Bank.alive bank with
    | b :: _ ->
        ignore (Sched.Bank.draw_from bank b ~cur:(disc.n_units + 1) : bool)
    | [] -> ());
    check_bank (what ^ " copy after its source changed") c c_batteries c_dead
  done

(* ------------------------------------------------------------------ *)
(* Span kernel: one call per span equals the per-draw loop             *)
(* ------------------------------------------------------------------ *)

(* The dKiBaM recurrences and the per-draw serving loop as they stood
   before the span kernel, on raw (n, m, clock) triples: every draw
   ticks the whole bank [ct] steps, then the serving battery draws.
   This is the reference [Sched.Bank.serve] must reproduce. *)
let ref_tick (d : Dkibam.Discretization.t) (n, m, clock) steps =
  let rec go k m clock =
    if k = 0 then (m, clock)
    else if m < 2 then (m, clock + k)
    else
      let due = max 1 (d.recov_time.(m) - clock) in
      if due > k then (m, clock + k) else go (k - due) (m - 1) 0
  in
  let m, clock = go steps m clock in
  (n, m, clock)

let ref_draw (d : Dkibam.Discretization.t) (n, m, clock) cur =
  let clock = if m <= 1 then 0 else clock in
  let n = n - cur and m = m + cur in
  if m >= 2 && clock >= d.recov_time.(m) then (n, m - 1, 0) else (n, m, clock)

let ref_serve d cells dead ~b (sch : Loads.Cursor.schedule) =
  let tick_all k = Array.iteri (fun i c -> cells.(i) <- ref_tick d c k) cells in
  let rec go i =
    if i > sch.draws then begin
      if sch.rest > 0 then tick_all sch.rest;
      Sched.Bank.Completed
    end
    else begin
      tick_all sch.ct;
      let ((n, _, _) as c) = cells.(b) in
      let fatal =
        n < sch.cur
        ||
        let ((n', m', _) as c') = ref_draw d c sch.cur in
        cells.(b) <- c';
        Dkibam.Discretization.is_empty d ~n:n' ~m:m'
      in
      if fatal then begin
        dead.(b) <- true;
        Sched.Bank.Died (i * sch.ct)
      end
      else go (i + 1)
    end
  in
  go 1

(* One battery serving [sch] by the per-draw loop: the 1-based index of
   the fatal draw (0: the span completed) and the battery after it. *)
let ref_span d cell (sch : Loads.Cursor.schedule) =
  let rec go i cell =
    if i > sch.draws then (0, ref_tick d cell sch.rest)
    else begin
      let ((n, _, _) as c) = ref_tick d cell sch.ct in
      if n < sch.cur then (i, c)
      else begin
        let ((n', m', _) as c') = ref_draw d c sch.cur in
        if Dkibam.Discretization.is_empty d ~n:n' ~m:m' then (i, c')
        else go (i + 1) c'
      end
    end
  in
  go 1 cell

let discs = [ ("B1", Dkibam.Discretization.paper_b1); ("B2", Dkibam.Discretization.paper_b2) ]

(* The kernel suites add a coarse grid (T = 0.25 min, Gamma = 0.05
   A*min, N = 110) on which eq. (6) rounds to 0 for m > 65, so
   recov_time clamps to one step there. *)
let coarse = Dkibam.Discretization.make ~time_step:0.25 ~charge_unit:0.05 Kibam.Params.b1
let kernel_discs = discs @ [ ("coarse", coarse) ]

(* A random battery state: [m <= N - n] keeps every draw inside the
   recovery table; the clock is sometimes past the recovery due at [m]
   (a hand-built overdue state), and [m < 2] comes up often. *)
let random_state g (d : Dkibam.Discretization.t) =
  let big = d.n_units in
  let n =
    match Prng.Splitmix.int g 4 with
    | 0 -> Prng.Splitmix.int g 12
    | 1 -> big
    | _ -> Prng.Splitmix.int g (big + 1)
  in
  let m =
    match Prng.Splitmix.int g 4 with
    | 0 -> Prng.Splitmix.int g 2
    | _ -> Prng.Splitmix.int g (big - n + 1)
  in
  let due = if m >= 2 then d.recov_time.(m) else 40 in
  let clock =
    match Prng.Splitmix.int g 3 with
    | 0 -> due + Prng.Splitmix.int g 30
    | _ -> Prng.Splitmix.int g (due + 1)
  in
  (n, m, clock)

let random_schedule g : Loads.Cursor.schedule =
  let pick_zero k = if Prng.Splitmix.int g 5 = 0 then 0 else k in
  {
    ct = 1 + Prng.Splitmix.int g 60;
    cur = 1 + Prng.Splitmix.int g 12;
    draws = pick_zero (Prng.Splitmix.int g 45);
    rest = pick_zero (Prng.Splitmix.int g 60);
  }

let cell_of (n, m, clock) = { Dkibam.Kernel.n; m; clock }
let triple (c : Dkibam.Kernel.cell) = (c.n, c.m, c.clock)
let show (n, m, clock) = Printf.sprintf "(%d, %d, %d)" n m clock

(* The kernel's entry points called directly on battery [b]'s state:
   [serve] (fatal index, cell and [elapsed]) against [ref_span], its
   one-segment cases [tick] and [draw] against [ref_tick] and
   [ref_draw], and [Bank.draw_from] (result, battery and dead flag). *)
let check_entry_points label d cells dead ~b (sch : Loads.Cursor.schedule) ~k =
  let start = cells.(b) in
  let want_fatal, want = ref_span d start sch in
  let c = cell_of start in
  let fatal = Dkibam.Kernel.serve d c ~ct:sch.ct ~cur:sch.cur ~draws:sch.draws ~rest:sch.rest in
  if fatal <> want_fatal || triple c <> want then
    failf "%s: Kernel.serve from %s gives draw %d and %s, per-draw loop %d and %s" label
      (show start) fatal (show (triple c)) want_fatal (show want);
  let steps = Dkibam.Kernel.elapsed ~ct:sch.ct ~draws:sch.draws ~rest:sch.rest fatal in
  let want_steps =
    if want_fatal = 0 then (sch.draws * sch.ct) + sch.rest else want_fatal * sch.ct
  in
  if steps <> want_steps then
    failf "%s: Kernel.elapsed %d, per-draw loop %d" label steps want_steps;
  let c = cell_of start in
  Dkibam.Kernel.tick d c k;
  if triple c <> ref_tick d start k then
    failf "%s: Kernel.tick %d from %s gives %s, reference %s" label k (show start)
      (show (triple c)) (show (ref_tick d start k));
  let ((n, _, _) as ticked) = ref_tick d start sch.ct in
  if n >= sch.cur then begin
    let c = cell_of ticked in
    Dkibam.Kernel.draw d c ~cur:sch.cur;
    if triple c <> ref_draw d ticked sch.cur then
      failf "%s: Kernel.draw %d from %s gives %s, reference %s" label sch.cur
        (show ticked) (show (triple c)) (show (ref_draw d ticked sch.cur))
  end;
  let bank =
    Sched.Bank.of_parts d
      ~batteries:
        (Array.map
           (fun (n, m, clock) ->
             Dkibam.Battery.make d ~n_gamma:n ~m_delta:m ~recov_clock:clock)
           cells)
      ~dead
  in
  let fatal = Sched.Bank.draw_from bank b ~cur:sch.cur in
  let n, _, _ = start in
  let want_fatal, want =
    if n < sch.cur then (true, start)
    else begin
      let ((n', m', _) as c') = ref_draw d start sch.cur in
      (Dkibam.Discretization.is_empty d ~n:n' ~m:m', c')
    end
  in
  let got = Sched.Bank.(n_gamma bank b, m_delta bank b, recov_clock bank b) in
  if fatal <> want_fatal || got <> want then
    failf "%s: Bank.draw_from %d from %s gives %b and %s, reference %b and %s" label
      sch.cur (show start) fatal (show got) want_fatal (show want);
  if Sched.Bank.is_dead bank b <> (dead.(b) || want_fatal) then
    failf "%s: Bank.draw_from leaves the dead flag wrong" label

(* States on eq. (8)'s boundary right after one draw:
   (1000 - c_milli) m = c_milli n exactly, so emptiness must hold with
   equality.  The draw starts with the clock at 0, so no recovery fires
   at its instant. *)
let boundary_cases (d : Dkibam.Discretization.t) =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = gcd d.c_milli (1000 - d.c_milli) in
  let un = (1000 - d.c_milli) / g and um = d.c_milli / g in
  List.concat_map
    (fun k ->
      List.filter_map
        (fun cur ->
          let n = (un * k) + cur and m = (um * k) - cur in
          if m < 0 || n + m > d.n_units then None else Some ((n, m, 0), cur))
        [ 1; 2; 5 ])
    (List.init (d.n_units / (un + um)) (fun k -> k + 1))

let test_span_matches_per_draw () =
  let g = gen 6L in
  let fatal_short = ref 0 and fatal_empty = ref 0 and completed = ref 0 in
  let on_boundary = ref 0 in
  List.iter
    (fun (dname, d) ->
      List.iter
        (fun (state, cur) ->
          let sch = { Loads.Cursor.ct = 0; cur; draws = 1 + Prng.Splitmix.int g 3; rest = 7 } in
          let label = Printf.sprintf "%s eq. (8) boundary %s, cur %d" dname (show state) cur in
          if fst (ref_span d state sch) <> 1 then
            failf "%s: the reference does not die on the boundary" label;
          check_entry_points label d [| state |] [| false |] ~b:0 sch ~k:3;
          incr on_boundary)
        (boundary_cases d);
      for round = 1 to 1500 do
        let size = 1 + Prng.Splitmix.int g 6 in
        let cells = Array.init size (fun _ -> random_state g d) in
        let b = Prng.Splitmix.int g size in
        let dead = Array.init size (fun i -> i <> b && Prng.Splitmix.int g 3 = 0) in
        let sch = random_schedule g in
        let bank =
          Sched.Bank.of_parts d
            ~batteries:
              (Array.map
                 (fun (n, m, clock) ->
                   Dkibam.Battery.make d ~n_gamma:n ~m_delta:m ~recov_clock:clock)
                 cells)
            ~dead
        in
        let ref_cells = Array.copy cells and ref_dead = Array.copy dead in
        let expected = ref_serve d ref_cells ref_dead ~b sch in
        let got = Sched.Bank.serve bank ~b sch in
        let label =
          Printf.sprintf "%s round %d (%d batteries, b=%d, ct=%d cur=%d draws=%d rest=%d)"
            dname round size b sch.ct sch.cur sch.draws sch.rest
        in
        check_entry_points label d cells dead ~b sch ~k:(Prng.Splitmix.int g 400);
        if got <> expected then failf "%s: outcome differs from the per-draw loop" label;
        (match expected with
        | Sched.Bank.Completed -> incr completed
        | Sched.Bank.Died _ ->
            let n, _, _ = ref_cells.(b) in
            if n < sch.cur then incr fatal_short else incr fatal_empty);
        Array.iteri
          (fun i (n, m, clock) ->
            let bat = Sched.Bank.battery bank i in
            if
              bat.Dkibam.Battery.n_gamma <> n
              || bat.Dkibam.Battery.m_delta <> m
              || bat.Dkibam.Battery.recov_clock <> clock
            then
              failf "%s: battery %d is (%d, %d, %d), per-draw loop (%d, %d, %d)" label i
                bat.n_gamma bat.m_delta bat.recov_clock n m clock;
            if Sched.Bank.is_dead bank i <> ref_dead.(i) then
              failf "%s: battery %d dead flag differs" label i)
          ref_cells
      done)
    kernel_discs;
  (* the generator must reach every ending: completion, the lacking-units
     fatal draw and the eq. (8) fatal draw, on its boundary too *)
  if !completed = 0 || !fatal_short = 0 || !fatal_empty = 0 || !on_boundary = 0 then
    failf "span cases not all reached (completed %d, short %d, empty %d, boundary %d)"
      !completed !fatal_short !fatal_empty !on_boundary

let test_negative_counts_refused () =
  let d = Dkibam.Discretization.paper_b1 in
  let refused what f =
    let c = { Dkibam.Kernel.n = 550; m = 10; clock = 3 } in
    match f c with
    | () -> failf "%s accepted" what
    | exception Invalid_argument _ ->
        if c <> { Dkibam.Kernel.n = 550; m = 10; clock = 3 } then
          failf "%s changed the cell before refusing" what
  in
  let serve ~ct ~draws ~rest c =
    ignore (Dkibam.Kernel.serve d c ~ct ~cur:1 ~draws ~rest)
  in
  refused "serve ~ct:(-1)" (serve ~ct:(-1) ~draws:2 ~rest:0);
  refused "serve ~ct:(-1) ~draws:0" (serve ~ct:(-1) ~draws:0 ~rest:0);
  refused "serve ~rest:(-1)" (serve ~ct:1 ~draws:2 ~rest:(-1));
  refused "serve ~draws:(-1)" (serve ~ct:1 ~draws:(-1) ~rest:0);
  refused "tick (-1)" (fun c -> Dkibam.Kernel.tick d c (-1));
  refused "tick min_int" (fun c -> Dkibam.Kernel.tick d c min_int)

let test_tick_composes () =
  let g = gen 7L in
  List.iter
    (fun (dname, d) ->
      for round = 1 to 3000 do
        let n, m, clock = random_state g d in
        let a = Prng.Splitmix.int g 400 and b = Prng.Splitmix.int g 400 in
        let split = { Dkibam.Kernel.n; m; clock } in
        Dkibam.Kernel.tick d split a;
        Dkibam.Kernel.tick d split b;
        let whole = { Dkibam.Kernel.n; m; clock } in
        Dkibam.Kernel.tick d whole (a + b);
        let _, rm, rclock = ref_tick d (n, m, clock) (a + b) in
        if split <> whole || whole.m <> rm || whole.clock <> rclock then
          failf
            "%s round %d: from (m=%d, clock=%d), tick %d; tick %d gives (%d, %d), \
             tick %d gives (%d, %d), reference (%d, %d)"
            dname round m clock a b split.m split.clock (a + b) whole.m whole.clock
            rm rclock
      done)
    kernel_discs

let test_trace_same_run () =
  let g = gen 8L in
  let policies =
    [| Sched.Policy.Best_of; Sched.Policy.Round_robin; Sched.Policy.Sequential |]
  in
  List.iter
    (fun (dname, d) ->
      for round = 1 to 40 do
        let a = arrays (random_load g ~jobs:(10 + Prng.Splitmix.int g 40)) in
        let n_batteries = 1 + Prng.Splitmix.int g 4 in
        let policy = policies.(Prng.Splitmix.int g (Array.length policies)) in
        let every = 1 + Prng.Splitmix.int g 300 in
        let run trace_every =
          Sched.Simulator.simulate ?trace_every ~n_batteries ~policy d a
        in
        let plain = run None and traced = run (Some every) in
        let label =
          Printf.sprintf "%s round %d (%d batteries, %s, every %d)" dname round
            n_batteries (Sched.Policy.name policy) every
        in
        let open Sched.Simulator in
        if plain.lifetime_steps <> traced.lifetime_steps then
          failf "%s: traced lifetime differs" label;
        if plain.decisions <> traced.decisions then
          failf "%s: traced decisions differ" label;
        if plain.deaths <> traced.deaths then failf "%s: traced deaths differ" label;
        if plain.serving_intervals <> traced.serving_intervals then
          failf "%s: traced serving intervals differ" label;
        if not (Array.for_all2 Dkibam.Battery.equal plain.final traced.final) then
          failf "%s: traced final batteries differ" label;
        if traced.samples = [] then failf "%s: no samples" label
      done)
    discs

(* ------------------------------------------------------------------ *)
(* Simulator: death is monotone in the load                            *)
(* ------------------------------------------------------------------ *)

let test_death_monotone_in_load () =
  let g = gen 4L in
  for round = 1 to 12 do
    let params = random_amp_params g ~jobs:40 in
    let base = arrays (load_of_amp_params ~amp_of:Fun.id params) in
    let heavy = arrays (load_of_amp_params ~amp_of:(fun k -> k + 1) params) in
    let lt_base = lifetime_steps (Printf.sprintf "round %d base" round) base in
    let lt_heavy = lifetime_steps (Printf.sprintf "round %d heavy" round) heavy in
    if lt_heavy > lt_base then
      failf "round %d: heavier load lives longer (%d > %d steps)" round lt_heavy
        lt_base
  done

(* ------------------------------------------------------------------ *)
(* Chaos-perturbed loads stay inside their dominance bounds            *)
(* ------------------------------------------------------------------ *)

let test_perturbed_load_within_bounds () =
  let g = gen 5L in
  let chaos = Guard.Chaos.create ~seed:(Int64.add seed 1000L) () in
  for round = 1 to 8 do
    let params = random_amp_params g ~jobs:40 in
    (* one perturbed amp per job, fixed for all three loads of the round *)
    let perturbed =
      List.map
        (fun (amps, _, _) -> Guard.Chaos.perturb_int chaos ~rel:0.4 ~min:1 amps)
        params
    in
    let zipped = List.combine params perturbed in
    let build pick =
      arrays
        (Loads.Epoch.concat
           (List.concat_map
              (fun (((amps, duration, idle) : int * float * float), p) ->
                Loads.Epoch.job ~current:(float_of_int (pick amps p)) ~duration
                :: (if idle > 0.0 then [ Loads.Epoch.idle idle ] else []))
              zipped))
    in
    let pert = build (fun _ p -> p) in
    let lo = build min in
    let hi = build max in
    (* lo <= pert <= hi pointwise, with identical draw instants, so the
       lifetimes must order the other way round *)
    let lt what a = lifetime_steps (Printf.sprintf "round %d %s" round what) a in
    let lt_pert = lt "perturbed" pert in
    let lt_lo = lt "lower bound" lo in
    let lt_hi = lt "upper bound" hi in
    if not (lt_hi <= lt_pert && lt_pert <= lt_lo) then
      failf "round %d: perturbed lifetime %d outside [%d, %d]" round lt_pert lt_hi
        lt_lo
  done

let () =
  Printf.printf "test_robustness: CHAOS_SEED=%Ld\n%!" seed;
  Alcotest.run "robustness"
    [
      ( "cursor",
        [ Alcotest.test_case "cadence conserves demand" `Quick test_cursor_conservation ] );
      ( "bank",
        [
          Alcotest.test_case "draw conservation + wells" `Quick
            test_bank_draw_conservation;
          Alcotest.test_case "serve conservation" `Quick test_bank_serve_conservation;
          Alcotest.test_case "flat layout round-trips, copies independent"
            `Quick test_bank_round_trip;
          Alcotest.test_case "packed key = tuple sort" `Quick
            test_bank_key_matches_tuple_sort;
        ] );
      ( "span kernel",
        [
          Alcotest.test_case "span = per-draw loop" `Quick
            test_span_matches_per_draw;
          Alcotest.test_case "negative counts refused" `Quick
            test_negative_counts_refused;
          Alcotest.test_case "tick composes" `Quick test_tick_composes;
          Alcotest.test_case "traced run = untraced run" `Quick
            test_trace_same_run;
        ] );
      ( "monotonicity",
        [
          Alcotest.test_case "death monotone in load" `Quick
            test_death_monotone_in_load;
          Alcotest.test_case "perturbed load within bounds" `Quick
            test_perturbed_load_within_bounds;
        ] );
    ]
