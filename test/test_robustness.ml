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
   recov_time clamps to one step there, and B1 with k' a thousand times
   smaller, whose recovery timeline (5.2 M steps) is past the cap: there
   the kernel serves every span on the event loop. *)
let coarse = Dkibam.Discretization.make ~time_step:0.25 ~charge_unit:0.05 Kibam.Params.b1

let past_cap =
  Dkibam.Discretization.make
    (Kibam.Params.make ~c:Kibam.Params.b1.c ~k':(Kibam.Params.b1.k' /. 1000.0)
       ~capacity:Kibam.Params.b1.capacity)

let kernel_discs = discs @ [ ("coarse", coarse); ("past the cap", past_cap) ]

(* A random battery state.  [m <= N - n] mostly keeps every draw inside
   the recovery table; one state in eight has [m] within a few units of
   [N], where a draw can take [m] past [N] and the kernel must raise
   exactly as the reference does.  The clock is sometimes past the
   recovery due at [m] (a hand-built overdue state), [m < 2] comes up
   often, and at [m = 1] the clock is sometimes large. *)
let random_state g (d : Dkibam.Discretization.t) =
  let big = d.n_units in
  let n =
    match Prng.Splitmix.int g 4 with
    | 0 -> Prng.Splitmix.int g 12
    | 1 -> big
    | _ -> Prng.Splitmix.int g (big + 1)
  in
  let m =
    match Prng.Splitmix.int g 8 with
    | 0 | 1 -> Prng.Splitmix.int g 2
    | 2 -> big - Prng.Splitmix.int g 6
    | _ -> Prng.Splitmix.int g (big - n + 1)
  in
  let due = if m >= 2 then d.recov_time.(m) else 40 in
  let clock =
    match Prng.Splitmix.int g 4 with
    | 0 -> due + Prng.Splitmix.int g 30
    | 1 when m = 1 -> 1_000_000 + Prng.Splitmix.int g 1_000_000_000_000
    | _ -> Prng.Splitmix.int g (due + 1)
  in
  (n, m, clock)

(* [cur] falls on both sides of the kernel's tabulated range
   [1 .. Discretization.max_draw_cur], and [ct] is sometimes 0. *)
let random_schedule g : Loads.Cursor.schedule =
  let pick_zero k = if Prng.Splitmix.int g 5 = 0 then 0 else k in
  let tab = Dkibam.Discretization.max_draw_cur in
  {
    ct = pick_zero (1 + Prng.Splitmix.int g 60);
    cur =
      (if Prng.Splitmix.bool g then 1 + Prng.Splitmix.int g tab
       else tab + 1 + Prng.Splitmix.int g 8);
    draws = pick_zero (Prng.Splitmix.int g 45);
    rest = pick_zero (Prng.Splitmix.int g 60);
  }

let cell_of (n, m, clock) = { Dkibam.Kernel.n; m; clock }
let triple (c : Dkibam.Kernel.cell) = (c.n, c.m, c.clock)
let show (n, m, clock) = Printf.sprintf "(%d, %d, %d)" n m clock

(* An outcome, exceptions included: a draw that takes m past N raises
   Invalid_argument in the reference and must raise the same in the
   kernel. *)
let attempt f = match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let show_outcome show_v = function
  | Ok v -> show_v v
  | Error msg -> Printf.sprintf "Invalid_argument %S" msg

let show_span (fatal, cell) = Printf.sprintf "draw %d and %s" fatal (show cell)

(* The kernel's entry points called directly on battery [b]'s state:
   [serve] and the event loop [serve_events] (fatal index, cell and
   [elapsed]; the cell untouched when they raise) against [ref_span],
   the one-segment cases [tick] and [draw] against [ref_tick] and
   [ref_draw], and [Bank.draw_from] (result, battery and dead flag). *)
let check_entry_points label d cells dead ~b (sch : Loads.Cursor.schedule) ~k =
  let start = cells.(b) in
  let want = attempt (fun () -> ref_span d start sch) in
  List.iter
    (fun (name, serve) ->
      let c = cell_of start in
      let got =
        attempt (fun () ->
            let fatal = serve d c ~ct:sch.ct ~cur:sch.cur ~draws:sch.draws ~rest:sch.rest in
            (fatal, triple c))
      in
      if got <> want then
        failf "%s: Kernel.%s from %s gives %s, per-draw loop %s" label name (show start)
          (show_outcome show_span got) (show_outcome show_span want);
      if Result.is_error got && triple c <> start then
        failf "%s: Kernel.%s raised after changing the cell" label name)
    [ ("serve", Dkibam.Kernel.serve); ("serve_events", Dkibam.Kernel.serve_events) ];
  (match want with
  | Error _ -> ()
  | Ok (want_fatal, _) ->
      let steps = Dkibam.Kernel.elapsed ~ct:sch.ct ~draws:sch.draws ~rest:sch.rest want_fatal in
      let want_steps =
        if want_fatal = 0 then (sch.draws * sch.ct) + sch.rest else want_fatal * sch.ct
      in
      if steps <> want_steps then
        failf "%s: Kernel.elapsed %d, per-draw loop %d" label steps want_steps);
  let c = cell_of start in
  Dkibam.Kernel.tick d c k;
  if triple c <> ref_tick d start k then
    failf "%s: Kernel.tick %d from %s gives %s, reference %s" label k (show start)
      (show (triple c)) (show (ref_tick d start k));
  let ((n, _, _) as ticked) = ref_tick d start sch.ct in
  if n >= sch.cur then begin
    let c = cell_of ticked in
    let got = attempt (fun () -> Dkibam.Kernel.draw d c ~cur:sch.cur; triple c) in
    let want = attempt (fun () -> ref_draw d ticked sch.cur) in
    if got <> want then
      failf "%s: Kernel.draw %d from %s gives %s, reference %s" label sch.cur
        (show ticked) (show_outcome show got) (show_outcome show want)
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
  let got =
    attempt (fun () ->
        let fatal = Sched.Bank.draw_from bank b ~cur:sch.cur in
        (fatal, Sched.Bank.(n_gamma bank b, m_delta bank b, recov_clock bank b)))
  in
  let n, _, _ = start in
  let want =
    if n < sch.cur then Ok (true, start)
    else
      attempt (fun () ->
          let ((n', m', _) as c') = ref_draw d start sch.cur in
          (Dkibam.Discretization.is_empty d ~n:n' ~m:m', c'))
  in
  let show_draw (fatal, cell) = Printf.sprintf "%b and %s" fatal (show cell) in
  if got <> want then
    failf "%s: Bank.draw_from %d from %s gives %s, reference %s" label sch.cur
      (show start) (show_outcome show_draw got) (show_outcome show_draw want);
  match want with
  | Ok (want_fatal, _) ->
      if Sched.Bank.is_dead bank b <> (dead.(b) || want_fatal) then
        failf "%s: Bank.draw_from leaves the dead flag wrong" label
  | Error _ -> ()

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
  let on_boundary = ref 0 and past_n = ref 0 and fresh = ref 0 and overdue = ref 0 in
  let long_idle = ref 0 and wide_cur = ref 0 and no_cadence = ref 0 in
  List.iter
    (fun (dname, (d : Dkibam.Discretization.t)) ->
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
        let expected = attempt (fun () -> ref_serve d ref_cells ref_dead ~b sch) in
        let got = attempt (fun () -> Sched.Bank.serve bank ~b sch) in
        let label =
          Printf.sprintf "%s round %d (%d batteries, b=%d, ct=%d cur=%d draws=%d rest=%d)"
            dname round size b sch.ct sch.cur sch.draws sch.rest
        in
        check_entry_points label d cells dead ~b sch ~k:(Prng.Splitmix.int g 400);
        let show_served = function
          | Sched.Bank.Completed -> "completed"
          | Sched.Bank.Died s -> Printf.sprintf "died after %d steps" s
        in
        if got <> expected then
          failf "%s: Bank.serve %s, per-draw loop %s" label (show_outcome show_served got)
            (show_outcome show_served expected);
        let n0, m0, clock0 = cells.(b) in
        if sch.draws > 0 then begin
          if m0 = 0 then incr fresh;
          if m0 >= 2 && clock0 >= d.recov_time.(m0) then incr overdue;
          if m0 = 1 && clock0 > 1_000_000 then incr long_idle;
          if sch.cur > Dkibam.Discretization.max_draw_cur then incr wide_cur;
          if sch.ct = 0 && n0 >= sch.cur then incr no_cadence
        end;
        match expected with
        | Error _ -> incr past_n
        | Ok outcome ->
            (match outcome with
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
  (* the grids must cover both kernel paths: timeline tables on B1, B2
     and the coarse grid, none past the cap *)
  List.iter
    (fun (dname, d) ->
      let has = (Dkibam.Discretization.timeline d).span >= 0 in
      if has <> (d != past_cap) then
        failf "%s: timeline %s" dname (if has then "built past the cap" else "missing"))
    kernel_discs;
  (* the generator must reach every ending — completion, the
     lacking-units fatal draw, the eq. (8) fatal draw (on its boundary
     too) and a draw past N — and every start the timeline hands to the
     event loop or treats apart *)
  let reached =
    [
      ("completed", !completed); ("short", !fatal_short); ("empty", !fatal_empty);
      ("boundary", !on_boundary); ("past N", !past_n); ("fresh m = 0", !fresh);
      ("overdue", !overdue); ("m = 1, long idle", !long_idle);
      ("cur past the tables", !wide_cur); ("ct = 0", !no_cadence);
    ]
  in
  List.iter
    (fun (what, count) -> if count = 0 then failf "span case %S never reached" what)
    reached

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
      done;
      (* counts near max_int wrap the clock in the reference; the
         kernel must wrap it the same way *)
      List.iter
        (fun start ->
          List.iter
            (fun k ->
              let c = cell_of start in
              Dkibam.Kernel.tick d c k;
              if triple c <> ref_tick d start k then
                failf "%s: tick %d from %s gives %s, reference %s" dname k (show start)
                  (show (triple c)) (show (ref_tick d start k));
              let c = cell_of start in
              let fatal = Dkibam.Kernel.serve d c ~ct:k ~cur:1 ~draws:1 ~rest:k in
              let want = ref_span d start { Loads.Cursor.ct = k; cur = 1; draws = 1; rest = k } in
              if (fatal, triple c) <> want then
                failf "%s: serve ~ct:%d ~rest:%d from %s gives %s, per-draw loop %s" dname
                  k k (show start) (show_span (fatal, triple c)) (show_span want))
            [ max_int; max_int - 3; max_int / 4; (max_int / 4) - 1 ])
        [ (d.n_units, 1, 1_000_000_000_000); (d.n_units / 2, 5, 0); (d.n_units, 0, 7) ])
    kernel_discs

(* Warm kernel calls allocate nothing: 10^5 rounds of [serve], [tick]
   and [draw] on B1, on the timeline and through each event-loop
   fallback (a fresh cell, an overdue clock, a [cur] past the tables),
   leave the minor heap's allocation counter where it was. *)
let test_kernel_allocates_nothing () =
  let d = Dkibam.Discretization.paper_b1 in
  let c = { Dkibam.Kernel.n = 0; m = 0; clock = 0 } in
  let round () =
    c.n <- 500;
    c.m <- 37;
    c.clock <- 2;
    ignore (Dkibam.Kernel.serve d c ~ct:4 ~cur:1 ~draws:3 ~rest:5);
    ignore (Dkibam.Kernel.serve d c ~ct:2 ~cur:3 ~draws:2 ~rest:0);
    Dkibam.Kernel.tick d c 17;
    Dkibam.Kernel.draw d c ~cur:2;
    c.m <- 0;
    ignore (Dkibam.Kernel.serve d c ~ct:4 ~cur:1 ~draws:3 ~rest:5);
    c.clock <- d.recov_time.(c.m) + 3;
    ignore (Dkibam.Kernel.serve d c ~ct:1 ~cur:2 ~draws:2 ~rest:1);
    ignore (Dkibam.Kernel.serve d c ~ct:1 ~cur:7 ~draws:2 ~rest:1)
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    round ()
  done;
  let after = Gc.minor_words () in
  if after <> before then
    failf "10^5 warm kernel rounds allocated %.0f minor words" (after -. before)

(* A discretization nobody has used yet, served from two domains at
   once: both build (or find) its timeline tables, and both agree with
   a serial run on another fresh copy and with the reference. *)
let test_fresh_disc_two_domains () =
  let g = gen 9L in
  let serial_disc = Dkibam.Discretization.make Kibam.Params.b1 in
  let cases =
    Array.init 3000 (fun _ ->
        let n, m, clock = random_state g serial_disc in
        let m = min m (serial_disc.n_units - n) in
        let sch = random_schedule g in
        ((n, m, clock), sch))
  in
  let run d =
    Array.map
      (fun (state, (sch : Loads.Cursor.schedule)) ->
        let c = cell_of state in
        let fatal =
          Dkibam.Kernel.serve d c ~ct:sch.ct ~cur:sch.cur ~draws:sch.draws ~rest:sch.rest
        in
        (fatal, triple c))
      cases
  in
  let fresh = Dkibam.Discretization.make Kibam.Params.b1 in
  let a = Domain.spawn (fun () -> run fresh) and b = Domain.spawn (fun () -> run fresh) in
  let ra = Domain.join a and rb = Domain.join b in
  let serial = run serial_disc in
  Array.iteri
    (fun i (state, sch) ->
      let want = ref_span serial_disc state sch in
      if serial.(i) <> want then
        failf "case %d: serial run gives %s, per-draw loop %s" i (show_span serial.(i))
          (show_span want);
      if ra.(i) <> serial.(i) || rb.(i) <> serial.(i) then
        failf "case %d from %s: domains give %s and %s, serial %s" i (show state)
          (show_span ra.(i)) (show_span rb.(i)) (show_span serial.(i)))
    cases

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

(* ------------------------------------------------------------------ *)
(* Span cache                                                          *)
(* ------------------------------------------------------------------ *)

(* One span through the cache or straight through the kernel: the fatal
   index and the cell after it, or the exception, with the cell
   required untouched when it raises. *)
let span_outcome label serve d start (sch : Loads.Cursor.schedule) =
  let c = cell_of start in
  let got =
    attempt (fun () ->
        let fatal = serve d c ~ct:sch.ct ~cur:sch.cur ~draws:sch.draws ~rest:sch.rest in
        (fatal, triple c))
  in
  if Result.is_error got && triple c <> start then
    failf "%s: a raising span changed the cell" label;
  got

let direct d c = Dkibam.Kernel.serve d c
let cached d c = Dkibam.Span_cache.serve (Dkibam.Span_cache.for_domain d) c

(* A pool of keys drawn with [random_state] and [random_schedule] (so
   some raise: a draw past N), plus one with a negative [ct]; spans
   drawn from it repeat, so the cache both hits and misses. *)
let key_pool g d size =
  Array.init size (fun i ->
      let sch = random_schedule g in
      let sch = if i = 0 then { sch with ct = -1 } else sch in
      (random_state g d, sch))

let span_cache_grids =
  [ ("B1", Dkibam.Discretization.paper_b1); ("B2", Dkibam.Discretization.paper_b2);
    ("coarse", coarse) ]

(* cached = direct on every grid, raising cases included; a raising
   span is never stored, so it raises again on a repeat.  The grids
   follow each other on this domain, so each switch empties the
   cache. *)
let test_span_cache_matches_kernel () =
  let g = gen 31L in
  List.iter
    (fun (dname, d) ->
      let cache = Dkibam.Span_cache.for_domain d in
      let hits0 = Dkibam.Span_cache.hits cache
      and misses0 = Dkibam.Span_cache.misses cache in
      let pool = key_pool g d 96 in
      let served = ref 0 and raised = ref 0 in
      for round = 1 to 4000 do
        let start, sch = pool.(Prng.Splitmix.int g (Array.length pool)) in
        let label =
          Printf.sprintf "%s round %d from %s (ct=%d cur=%d draws=%d rest=%d)" dname
            round (show start) sch.ct sch.cur sch.draws sch.rest
        in
        let want = span_outcome label direct d start sch in
        let got = span_outcome label cached d start sch in
        if got <> want then
          failf "%s: cached %s, kernel %s" label (show_outcome show_span got)
            (show_outcome show_span want);
        if Result.is_ok want then incr served else incr raised
      done;
      let hits = Dkibam.Span_cache.hits cache - hits0
      and misses = Dkibam.Span_cache.misses cache - misses0 in
      if hits + misses <> !served then
        failf "%s: %d hits + %d misses for %d served spans" dname hits misses !served;
      if hits = 0 || misses = 0 || !raised = 0 then
        failf "%s: %d hits, %d misses, %d raising spans: a case never reached" dname
          hits misses !raised)
    span_cache_grids

(* Two keys forced into one slot evict each other: served in turn, each
   is a miss and each gives the kernel's answer. *)
let test_span_cache_collision () =
  let g = gen 32L in
  let d = Dkibam.Discretization.paper_b1 in
  let fits (n, m, clock) (sch : Loads.Cursor.schedule) =
    Result.is_ok
      (attempt (fun () ->
           Dkibam.Kernel.serve d (cell_of (n, m, clock)) ~ct:sch.ct ~cur:sch.cur
             ~draws:sch.draws ~rest:sch.rest))
  in
  let slot_of (state, (sch : Loads.Cursor.schedule)) =
    Dkibam.Span_cache.slot ~ct:sch.ct ~cur:sch.cur ~draws:sch.draws ~rest:sch.rest
      (cell_of state)
  in
  let seen = Hashtbl.create 64 in
  let rec find () =
    let key = (random_state g d, random_schedule g) in
    if not (fits (fst key) (snd key)) then find ()
    else
      match Hashtbl.find_opt seen (slot_of key) with
      | Some other when other <> key -> (other, key)
      | _ ->
          Hashtbl.replace seen (slot_of key) key;
          find ()
  in
  let a, b = find () in
  let cache = Dkibam.Span_cache.for_domain d in
  let misses0 = Dkibam.Span_cache.misses cache in
  for round = 1 to 6 do
    let start, sch = if round mod 2 = 1 then a else b in
    let label = Printf.sprintf "colliding key %s, turn %d" (show start) round in
    let want = span_outcome label direct d start sch in
    let got = span_outcome label cached d start sch in
    if got <> want then
      failf "%s: cached %s, kernel %s" label (show_outcome show_span got)
        (show_outcome show_span want)
  done;
  let misses = Dkibam.Span_cache.misses cache - misses0 in
  if misses <> 6 then failf "two keys in one slot: %d misses in 6 turns" misses

(* One domain serves the same keys under B1, then B2: nothing cached
   under B1 answers under B2. *)
let test_span_cache_switch () =
  let g = gen 33L in
  let b1 = Dkibam.Discretization.paper_b1 and b2 = Dkibam.Discretization.paper_b2 in
  let keys = key_pool g b1 48 in
  List.iter
    (fun d ->
      Array.iteri
        (fun i (start, sch) ->
          for turn = 1 to 2 do
            let label =
              Printf.sprintf "%s key %d turn %d from %s"
                (if d == b1 then "B1" else "B2") i turn (show start)
            in
            let want = span_outcome label direct d start sch in
            let got = span_outcome label cached d start sch in
            if got <> want then
              failf "%s: cached %s, kernel %s" label (show_outcome show_span got)
                (show_outcome show_span want)
          done)
        keys)
    [ b1; b2; b1 ]

(* Two domains, each with its own cache, serve interleaved spans from
   one pool; every outcome matches a serial run of the kernel. *)
let test_span_cache_two_domains () =
  let g = gen 34L in
  let d = Dkibam.Discretization.paper_b1 in
  let pool = key_pool g d 64 in
  let picks =
    Array.init 2 (fun _ -> Array.init 3000 (fun _ -> Prng.Splitmix.int g 64))
  in
  let run serve picks =
    Array.map
      (fun i ->
        let start, sch = pool.(i) in
        span_outcome (Printf.sprintf "pool key %d" i) serve d start sch)
      picks
  in
  let serial = Array.map (run direct) picks in
  let worker i () = (Dkibam.Span_cache.for_domain d, run cached picks.(i)) in
  let domains = Array.init 2 (fun i -> Domain.spawn (worker i)) in
  let results = Array.map Domain.join domains in
  if fst results.(0) == fst results.(1) then failf "two domains share one cache";
  Array.iteri
    (fun i (_, got) ->
      if got <> serial.(i) then failf "domain %d: cached spans differ from the kernel" i)
    results

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
          Alcotest.test_case "kernel allocates nothing" `Quick
            test_kernel_allocates_nothing;
          Alcotest.test_case "fresh discretization, two domains" `Quick
            test_fresh_disc_two_domains;
          Alcotest.test_case "traced run = untraced run" `Quick
            test_trace_same_run;
        ] );
      ( "span cache",
        [
          Alcotest.test_case "cached = kernel, B1/B2/coarse" `Quick
            test_span_cache_matches_kernel;
          Alcotest.test_case "two keys in one slot" `Quick
            test_span_cache_collision;
          Alcotest.test_case "B1 then B2 on one domain" `Quick
            test_span_cache_switch;
          Alcotest.test_case "two domains = serial kernel" `Quick
            test_span_cache_two_domains;
        ] );
      ( "monotonicity",
        [
          Alcotest.test_case "death monotone in load" `Quick
            test_death_monotone_in_load;
          Alcotest.test_case "perturbed load within bounds" `Quick
            test_perturbed_load_within_bounds;
        ] );
    ]
