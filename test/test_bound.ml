(* The branch-and-bound correctness harness.

   Two halves.  The differential half runs the optimal search with
   bounds on and off — over every Table 5 load, both battery types and
   all three objectives, then over the four fixed regimes of the bound
   suite (whose cuts must fire) and an ensemble of random loads — and
   demands bit-identical results (lifetime, stranded charge, schedule),
   plus a replay of the bounded search's schedule through the simulator.
   The property half checks Sched.Bound directly: admissibility of all
   three bounds at every decision point along full simulated traces,
   monotonicity in remaining charge, and permutation symmetry of the
   bank.  A failure here means a cut could have removed the optimum.

   The random half is seeded from CHAOS_SEED when set, so a CI failure
   reproduces locally with [CHAOS_SEED=... dune runtest]; the seed is
   printed either way. *)

let disc_b1 = Dkibam.Discretization.paper_b1
let disc_b2 = Dkibam.Discretization.paper_b2
let enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load
let arrays name = enc (Loads.Testloads.load name)
let check_int = Alcotest.(check int)

let discs = [ ("B1", disc_b1); ("B2", disc_b2) ]

(* B2's five-fold capacity turns the 250 mA and short-idle searches into
   multi-minute trees (ILs 250 alone runs ~2.5 minutes per mode), so the
   exhaustive-search tests keep B1 complete and restrict B2 to the loads
   whose trees stay small.  B2's bound behaviour is still covered three
   ways: these four loads across all objectives, the trace-admissibility
   properties (which need no search), and the replay check. *)
let table5_loads = function
  | "B2" ->
      [
        Loads.Testloads.CL_500; Loads.Testloads.CL_alt;
        Loads.Testloads.ILs_500; Loads.Testloads.ILl_500;
      ]
  | _ -> Loads.Testloads.all_names

let objectives =
  [
    ("max-lifetime", Sched.Optimal.Max_lifetime);
    ("min-stranded", Sched.Optimal.Min_stranded);
    ("min-lifetime", Sched.Optimal.Min_lifetime);
  ]

(* ------------------------------------------------------------------ *)
(* Differential: bounds on vs off                                      *)
(* ------------------------------------------------------------------ *)

let check_identical ~what (a : Sched.Optimal.result) (b : Sched.Optimal.result)
    =
  if
    a.lifetime_steps <> b.lifetime_steps
    || a.stranded_units <> b.stranded_units
    || a.schedule <> b.schedule
  then
    Alcotest.failf
      "%s: bounds on (life %d, stranded %d, %d decisions) vs off (life %d, \
       stranded %d, %d decisions)"
      what a.lifetime_steps a.stranded_units
      (Array.length a.schedule)
      b.lifetime_steps b.stranded_units
      (Array.length b.schedule)

let test_differential_table5 () =
  List.iter
    (fun (disc_name, disc) ->
      List.iter
        (fun (obj_name, objective) ->
          List.iter
            (fun name ->
              let a = arrays name in
              let on =
                Sched.Optimal.search ~bounds:true ~objective ~n_batteries:2
                  disc a
              in
              let off =
                Sched.Optimal.search ~bounds:false ~objective ~n_batteries:2
                  disc a
              in
              let what =
                Printf.sprintf "%s (%s, %s)"
                  (Loads.Testloads.to_string name)
                  disc_name obj_name
              in
              check_identical ~what on off;
              (* both runs, work included, against the frozen answers *)
              List.iter
                (fun (mode, r) ->
                  Answers.check_search ~work:true
                    (Printf.sprintf "search %s %s %s %s" disc_name
                       (Loads.Testloads.to_string name)
                       obj_name (Answers.bounds_tag mode))
                    r)
                [ (true, on); (false, off) ];
              check_int (what ^ ": cuts with bounds off") 0
                off.stats.bound_cuts;
              (* a cut subtree is never simulated: the bounded search can
                 only do less work, never more *)
              if on.stats.segments_run > off.stats.segments_run then
                Alcotest.failf "%s: bounds ran MORE segments (%d vs %d)" what
                  on.stats.segments_run off.stats.segments_run)
            (table5_loads disc_name))
        objectives)
    discs

let test_replay_table5 () =
  (* the bounded search's schedule, replayed through the simulator with
     Policy.Fixed, reproduces the same lifetime and stranded charge *)
  List.iter
    (fun (disc_name, disc) ->
      List.iter
        (fun name ->
          let a = arrays name in
          let r =
            Sched.Optimal.search ~bounds:true ~n_batteries:2 disc a
          in
          let o =
            Sched.Simulator.simulate ~n_batteries:2
              ~policy:(Sched.Policy.Fixed r.schedule) disc a
          in
          let what =
            Printf.sprintf "%s (%s)" (Loads.Testloads.to_string name) disc_name
          in
          (match o.lifetime_steps with
          | Some s when s = r.lifetime_steps -> ()
          | Some s ->
              Alcotest.failf "%s: search died at %d, replay at %d" what
                r.lifetime_steps s
          | None -> Alcotest.failf "%s: replay outlived the load" what);
          check_int
            (what ^ ": stranded")
            r.stranded_units
            (Sched.Bank.stranded_units o.final))
        (table5_loads disc_name))
    discs

let test_differential_empty_initial () =
  (* a hand-built pack may hold a battery that is alive yet already
     empty by eq. (8): its first draw kills it, and until then it only
     recovers.  Its negative available charge must not drag the
     availability bound below the lives the rest of the pack reaches. *)
  List.iter
    (fun name ->
      let a = arrays name in
      List.iter
        (fun (n_gamma, m_delta) ->
          let initial =
            [|
              Dkibam.Battery.make disc_b1 ~n_gamma ~m_delta ~recov_clock:0;
              Dkibam.Battery.full disc_b1;
              Dkibam.Battery.full disc_b1;
            |]
          in
          let search bounds =
            Sched.Optimal.search ~bounds ~initial ~n_batteries:3 disc_b1 a
          in
          check_identical
            ~what:
              (Printf.sprintf "%s from an empty (%d, %d) cell"
                 (Loads.Testloads.to_string name) n_gamma m_delta)
            (search true) (search false))
        [ (46, 49); (120, 200); (100, 400) ])
    [
      Loads.Testloads.CL_500; Loads.Testloads.CL_alt; Loads.Testloads.ILs_500;
      Loads.Testloads.ILl_500;
    ]

let chaos_seed = Guard.Chaos.seed_from_env ~default:20260806L ()

let random_load g =
  let seed = Prng.Splitmix.next_int64 g in
  enc (Loads.Random_load.intermitted ~seed ~jobs:60 ())

let test_differential_random () =
  Printf.printf "test_bound: CHAOS_SEED=%Ld\n%!" chaos_seed;
  (* the fixed regimes first: identical results, and the bounds must
     actually cut there, or pruning is inert *)
  let cuts =
    List.fold_left
      (fun cuts (label, disc, n_batteries, a) ->
        let on = Sched.Optimal.search ~bounds:true ~n_batteries disc a in
        let off = Sched.Optimal.search ~bounds:false ~n_batteries disc a in
        check_identical ~what:("regime " ^ label) on off;
        cuts + on.stats.bound_cuts)
      0 Answers.regimes
  in
  Printf.printf "test_bound: %d bound cuts over the four regimes\n%!" cuts;
  if cuts = 0 then Alcotest.fail "no bound cut fired on the four regimes";
  let g = Prng.Splitmix.create chaos_seed in
  for i = 1 to 50 do
    let a = random_load g in
    let on = Sched.Optimal.search ~bounds:true ~n_batteries:2 disc_b1 a in
    let off = Sched.Optimal.search ~bounds:false ~n_batteries:2 disc_b1 a in
    let what = Printf.sprintf "random load %d (seed %Ld)" i chaos_seed in
    check_identical ~what on off;
    (* replay through the simulator: same lifetime *)
    let o =
      Sched.Simulator.simulate ~n_batteries:2
        ~policy:(Sched.Policy.Fixed on.schedule) disc_b1 a
    in
    match o.lifetime_steps with
    | Some s when s = on.lifetime_steps -> ()
    | Some s ->
        Alcotest.failf "%s: search died at %d, replay at %d" what
          on.lifetime_steps s
    | None -> Alcotest.failf "%s: replay outlived the load" what
  done

(* ------------------------------------------------------------------ *)
(* Property: admissibility along full traces                           *)
(* ------------------------------------------------------------------ *)

(* A policy that records every decision context while delegating the
   actual choice, so a simulated run yields the exact search positions
   it passed through.  The ctx -> position construction mirrors
   [Horizon.policy]: at a mid-job hand-over the simulator
   applies the switch delay after consulting the policy, so the bound is
   queried at the post-delay state. *)
let recording_policy inner recorded =
  let state = ref 0 in
  Sched.Policy.Custom
    (fun ctx ->
      recorded :=
        (ctx.epoch_index, ctx.step, ctx.mid_job, Array.copy ctx.batteries,
         ctx.alive)
        :: !recorded;
      Sched.Policy.decide inner ~state ctx)

(* A simulated run and its decision points as search positions
   [(y, step, local, bank)], in the order the run met them. *)
let decision_points disc a ~n_batteries policy =
  let cursor = Loads.Cursor.make a in
  let recorded = ref [] in
  let o =
    Sched.Simulator.simulate ~n_batteries
      ~policy:(recording_policy policy recorded)
      disc a
  in
  ( o,
    List.rev_map
      (fun (y, step, mid_job, batteries, alive) ->
        let delay = if mid_job then 1 else 0 in
        ( y,
          step,
          step - Loads.Cursor.epoch_start cursor y + delay,
          Sched.Bank.of_parts disc
            ~batteries:
              (Array.map (Dkibam.Battery.tick_many disc delay) batteries)
            ~dead:
              (Array.init (Array.length batteries) (fun i ->
                   not (List.mem i alive))) ))
      !recorded )

let check_admissible ~what disc a policy =
  let bound = Sched.Bound.create disc (Loads.Cursor.make a) in
  let o, points = decision_points disc a ~n_batteries:2 policy in
  let life =
    match o.lifetime_steps with
    | Some s -> s
    | None -> Alcotest.failf "%s: run outlived the load" what
  in
  let stranded = Sched.Bank.stranded_units o.final in
  if points = [] then Alcotest.failf "%s: no decisions recorded" what;
  List.iter
    (fun (y, step, local, bank) ->
      let ub = Sched.Bound.lifetime_ub bound ~y ~local bank in
      let lb = Sched.Bound.lifetime_lb bound ~y ~local bank in
      let slb = Sched.Bound.stranded_lb bound ~y ~local bank in
      if ub < life then
        Alcotest.failf
          "%s: lifetime_ub %d < achieved lifetime %d at (y=%d, step=%d)" what
          ub life y step;
      if lb > life then
        Alcotest.failf
          "%s: lifetime_lb %d > achieved lifetime %d at (y=%d, step=%d)" what
          lb life y step;
      if slb > stranded then
        Alcotest.failf
          "%s: stranded_lb %d > achieved stranded %d at (y=%d, step=%d)" what
          slb stranded y step)
    points

let test_admissible_traces () =
  (* every decision point of a simulated run is a search position, and
     the run's own continuation is one of the schedules the bounds must
     cover — so the final lifetime/stranded must respect the bounds
     computed at every point along the way, for any policy *)
  let g = Prng.Splitmix.create chaos_seed in
  let loads =
    List.map
      (fun n -> (Loads.Testloads.to_string n, arrays n))
      Loads.Testloads.all_names
    @ List.init 10 (fun i -> (Printf.sprintf "random %d" i, random_load g))
  in
  List.iter
    (fun (disc_name, disc) ->
      List.iter
        (fun (load_name, a) ->
          (* heuristic and adversarial paths visit off-optimum regions of
             the tree; on B1 the optimal path itself rides along (B2's
             searches are too slow to run per load — its trace coverage
             comes from the heuristics, which need no search) *)
          let heuristics =
            [
              ("best-of", Sched.Policy.Best_of);
              ("round-robin", Sched.Policy.Round_robin);
              ("sequential", Sched.Policy.Sequential);
            ]
          in
          let policies =
            if disc_name = "B1" then
              let r = Sched.Optimal.search ~n_batteries:2 disc a in
              ("optimal", Sched.Policy.Fixed r.schedule) :: heuristics
            else heuristics
          in
          List.iter
            (fun (policy_name, policy) ->
              check_admissible
                ~what:
                  (Printf.sprintf "%s (%s, %s)" load_name disc_name policy_name)
                disc a policy)
            policies)
        loads)
    discs

(* ------------------------------------------------------------------ *)
(* Availability bound: hull tree = epoch scan                          *)
(* ------------------------------------------------------------------ *)

(* [Sched.Bound.avail_ub] as it stood before the hull tree: one pass
   over every remaining epoch, [served] accumulated along the way.  The
   hull query must return this value at every position.  Its supply
   counts each alive battery's available charge at no less than 0, as
   the bound does: a battery that serves nothing adds nothing. *)
let scan_avail_ub (disc : Dkibam.Discretization.t) cursor ~switch_delay ~skip
    ~y ~local bank =
  let skip01 = if skip then 1 else 0 in
  let e_count = Loads.Cursor.epoch_count cursor in
  let cmax = ref 0 in
  for e = y to e_count - 1 do
    cmax := max !cmax (Loads.Cursor.schedule cursor e).cur
  done;
  let cmax = !cmax and alive = Sched.Bank.alive bank in
  if alive = [] then 0
  else if cmax = 0 then Sched.Bound.infinite
  else begin
    let c = disc.c_milli and n_units = disc.n_units in
    let a = List.length alive in
    let gnum, gcon =
      List.fold_left
        (fun (gnum, gcon) i ->
          let b = Sched.Bank.battery bank i in
          let m_cap = ((c * b.Dkibam.Battery.n_gamma) - 1) / (1000 - c) in
          let m_ceil = min n_units (max m_cap b.Dkibam.Battery.m_delta + cmax) in
          if m_ceil < 2 then (gnum, gcon)
          else
            let rt = Dkibam.Discretization.recov_time disc m_ceil in
            (gnum + ((((1000 - c) * 1000) + rt - 1) / rt), gcon + (1000 - c)))
        (0, 0) alive
    in
    let supply =
      List.fold_left
        (fun acc i ->
          acc
          + 1000
            * max 0
                (Dkibam.Battery.available_milli_units disc
                   (Sched.Bank.battery bank i)))
        0 alive
      + (1000 * a * (switch_delay + 3) * cmax * 1000)
      + (1000 * gcon)
    in
    let now = Loads.Cursor.epoch_start cursor y + local in
    let exception Cross of int in
    let check_epoch e ~local ~served =
      let sch = Loads.Cursor.schedule_from cursor e ~local in
      let es = Loads.Cursor.epoch_start cursor e in
      if sch.cur > 0 then begin
        let min_draws = max 0 (sch.draws - skip01) in
        let t_end = es + local + (sch.draws * sch.ct) in
        let demand_end = 1_000_000 * (served + (min_draws * sch.cur)) in
        if demand_end > supply + (gnum * (t_end - now)) then begin
          let coeff = (1_000_000 * sch.cur) - (gnum * sch.ct) in
          if coeff > 0 then begin
            let rhs =
              supply
              + (gnum * (es + local - now))
              - (1_000_000 * (served - (skip01 * sch.cur)))
            in
            let k = max 1 ((rhs / coeff) + 1) in
            if k <= sch.draws then raise (Cross (es + local + (k * sch.ct) - 1))
          end
        end
      end;
      served + if sch.cur = 0 then 0 else max 0 (sch.draws - skip01) * sch.cur
    in
    match
      let served = ref (check_epoch y ~local ~served:0) in
      for e = y + 1 to e_count - 1 do
        served := check_epoch e ~local:0 ~served:!served
      done
    with
    | () -> Sched.Bound.infinite
    | exception Cross s -> s
  end

(* A random position: any epoch, any offset into it, and a bank of one
   to six batteries in arbitrary states, some of them dead. *)
let random_position g (disc : Dkibam.Discretization.t) cursor =
  let y = Prng.Splitmix.int g (Loads.Cursor.epoch_count cursor) in
  let local = Prng.Splitmix.int g (Loads.Cursor.epoch_len cursor y) in
  let size = 1 + Prng.Splitmix.int g 6 in
  let big = disc.n_units in
  let batteries =
    Array.init size (fun _ ->
        let n = Prng.Splitmix.int g (big + 1) in
        let m = Prng.Splitmix.int g (big - n + 1) in
        Dkibam.Battery.make disc ~n_gamma:n ~m_delta:m
          ~recov_clock:(Prng.Splitmix.int g 200))
  in
  let dead = Array.init size (fun _ -> Prng.Splitmix.int g 4 = 0) in
  (y, local, Sched.Bank.of_parts disc ~batteries ~dead)

(* Every Table 5 load on 2xB1 and 2xB2, then the four regimes, as
   (label, battery, bank size, load). *)
let table5_both =
  List.concat_map
    (fun (dname, disc) ->
      List.map
        (fun name ->
          (Loads.Testloads.to_string name ^ " " ^ dname, disc, 2, arrays name))
        Loads.Testloads.all_names)
    discs

let bound_loads = table5_both @ Answers.regimes

(* The decision points of best-of, round-robin and sequential runs, as
   [(y, local, bank)]. *)
let traced_positions disc a ~n_batteries =
  List.concat_map
    (fun policy ->
      List.map
        (fun (y, _, local, bank) -> (y, local, bank))
        (snd (decision_points disc a ~n_batteries policy)))
    [ Sched.Policy.Best_of; Sched.Policy.Round_robin; Sched.Policy.Sequential ]

let test_avail_hull_equals_scan () =
  let g = Prng.Splitmix.create (Int64.add chaos_seed 17L) in
  let loads =
    bound_loads
    @ [
        (* the longest spec load the parser accepts *)
        ( "20,000 epochs",
          disc_b1,
          2,
          enc (Loads.Spec.parse "repeat 10000 (job 0.25 0.5; idle 0.3)") );
        (* 10^14 steps of idle: some queries' gain slopes would overflow
           the hull's products and take the scan *)
        ( "1e12-minute idle",
          disc_b1,
          2,
          enc
            (Loads.Spec.parse
               "repeat 20 (job 0.5 1; idle 1); idle 1e12; repeat 60 (job 0.5 1; \
                idle 1)") );
        (* 10^17 steps: the whole load is past the hull's range *)
        ( "1e15-minute idle",
          disc_b2,
          3,
          enc
            (Loads.Spec.parse
               "repeat 20 (job 0.25 1; idle 1); idle 1e15; repeat 60 (job 0.5 \
                1; idle 1)") );
      ]
  in
  let compared = ref 0 and finite = ref 0 in
  List.iter
    (fun (label, disc, n_batteries, a) ->
      let cursor = Loads.Cursor.make a in
      let traced = traced_positions disc a ~n_batteries in
      let randoms = List.init 150 (fun _ -> random_position g disc cursor) in
      List.iter
        (fun (skip, switch_delay) ->
          let bound =
            Sched.Bound.create ~switch_delay ~allow_final_draw_skip:skip disc cursor
          in
          List.iter
            (fun (y, local, bank) ->
              let hull = Sched.Bound.avail_ub bound ~y ~local bank in
              let scan =
                scan_avail_ub disc cursor ~switch_delay ~skip ~y ~local bank
              in
              incr compared;
              if scan < Sched.Bound.infinite then incr finite;
              if hull <> scan then
                Alcotest.failf
                  "%s (skip %b, delay %d) at y=%d local=%d: hull %d, scan %d \
                   [seed %Ld]"
                  label skip switch_delay y local hull scan chaos_seed)
            (traced @ randoms))
        [ (false, 1); (true, 1); (false, 0); (true, 3) ])
    loads;
  (* a good share of the comparisons must be of actual crossings, not
     of two infinities *)
  if 4 * !finite < !compared then
    Alcotest.failf "only %d of %d comparisons were finite" !finite !compared

(* ------------------------------------------------------------------ *)
(* Property: floor <= ub                                               *)
(* ------------------------------------------------------------------ *)

(* The search skips a child's upper-bound query when the child's floor
   already beats the best sibling, which is exact only because a
   position's floor never exceeds its upper bound: [lifetime_lb <=
   lifetime_ub], and so, for every objective, the search's score floor
   is at most its score bound. *)
let test_floor_below_ub () =
  let g = Prng.Splitmix.create (Int64.add chaos_seed 29L) in
  let checked = ref 0 and finite = ref 0 in
  List.iter
    (fun (label, disc, n_batteries, a) ->
      let cursor = Loads.Cursor.make a in
      (* a decision point always has an alive battery *)
      let positions =
        traced_positions disc a ~n_batteries
        @ List.filter
            (fun (_, _, bank) -> Sched.Bank.any_alive bank)
            (List.init 100 (fun _ -> random_position g disc cursor))
      in
      List.iter
        (fun (skip, switch_delay) ->
          let bound =
            Sched.Bound.create ~switch_delay ~allow_final_draw_skip:skip disc
              cursor
          in
          List.iter
            (fun (y, local, bank) ->
              let lb = Sched.Bound.lifetime_lb bound ~y ~local bank in
              let ub = Sched.Bound.lifetime_ub bound ~y ~local bank in
              incr checked;
              if ub < Sched.Bound.infinite then incr finite;
              if lb > ub then
                Alcotest.failf
                  "%s (skip %b, delay %d) at y=%d local=%d: lifetime_lb %d > \
                   lifetime_ub %d [seed %Ld]"
                  label skip switch_delay y local lb ub chaos_seed;
              List.iter
                (fun (obj_name, objective) ->
                  let floor =
                    Sched.Optimal.score_floor objective bound ~y ~local bank
                  in
                  let score_ub =
                    Sched.Optimal.score_ub objective bound ~y ~local bank
                  in
                  if floor > score_ub then
                    Alcotest.failf
                      "%s (skip %b, delay %d, %s) at y=%d local=%d: floor %d > \
                       score bound %d [seed %Ld]"
                      label skip switch_delay obj_name y local floor score_ub
                      chaos_seed)
                objectives)
            positions)
        [
          (false, 0); (true, 0); (false, 1); (true, 1); (false, 3); (true, 3);
        ])
    (* the regimes on the other cell too *)
    (bound_loads
    @ List.map
        (fun (label, disc, n, a) ->
          let other = if disc == disc_b1 then disc_b2 else disc_b1 in
          (label ^ " (other cell)", other, n, a))
        Answers.regimes);
  (* most positions must have a finite upper bound, or the ordering is
     checked against infinity alone *)
  if 2 * !finite < !checked then
    Alcotest.failf "only %d of %d upper bounds were finite" !finite !checked

(* ------------------------------------------------------------------ *)
(* Property: monotonicity in charge                                    *)
(* ------------------------------------------------------------------ *)

let test_monotone_in_charge () =
  (* adding charge units to a battery (same bound-well state) can only
     push both lifetime bounds later: a fuller bank can mimic any
     schedule of an emptier one *)
  let a = arrays Loads.Testloads.ILs_alt in
  let cursor = Loads.Cursor.make a in
  List.iter
    (fun (disc_name, disc) ->
      let bound = Sched.Bound.create disc cursor in
      let n_max = disc.Dkibam.Discretization.n_units in
      List.iter
        (fun m ->
          let prev_ub = ref min_int and prev_lb = ref min_int in
          List.iter
            (fun n ->
              if n >= m then begin
                let b =
                  Dkibam.Battery.make disc ~n_gamma:n ~m_delta:m ~recov_clock:0
                in
                let bank =
                  Sched.Bank.of_parts disc
                    ~batteries:[| b; Dkibam.Battery.full disc |]
                    ~dead:[| false; false |]
                in
                let ub = Sched.Bound.lifetime_ub bound ~y:0 ~local:0 bank in
                let lb = Sched.Bound.lifetime_lb bound ~y:0 ~local:0 bank in
                if ub < !prev_ub then
                  Alcotest.failf
                    "%s: lifetime_ub fell from %d to %d at n=%d, m=%d"
                    disc_name !prev_ub ub n m;
                if lb < !prev_lb then
                  Alcotest.failf
                    "%s: lifetime_lb fell from %d to %d at n=%d, m=%d"
                    disc_name !prev_lb lb n m;
                prev_ub := ub;
                prev_lb := lb
              end)
            [ 1; 10; 50; 100; 200; 350; n_max ])
        [ 0; 5; 25; 60 ])
    discs

(* ------------------------------------------------------------------ *)
(* Property: permutation symmetry                                      *)
(* ------------------------------------------------------------------ *)

let test_permutation_symmetry () =
  (* the bounds see the bank as a multiset — battery ids must not
     matter, matching the search's canonical-multiset memo key *)
  let a = arrays Loads.Testloads.ILs_alt in
  let cursor = Loads.Cursor.make a in
  let perms3 =
    [
      [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |];
      [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |];
    ]
  in
  List.iter
    (fun (disc_name, disc) ->
      let bound = Sched.Bound.create disc cursor in
      let batteries =
        [|
          Dkibam.Battery.full disc;
          Dkibam.Battery.make disc ~n_gamma:300 ~m_delta:40 ~recov_clock:3;
          Dkibam.Battery.make disc ~n_gamma:120 ~m_delta:80 ~recov_clock:0;
        |]
      in
      let dead = [| false; false; true |] in
      let reference = ref None in
      List.iter
        (fun perm ->
          let bank =
            Sched.Bank.of_parts disc
              ~batteries:(Array.map (fun i -> batteries.(i)) perm)
              ~dead:(Array.map (fun i -> dead.(i)) perm)
          in
          let v =
            ( Sched.Bound.lifetime_ub bound ~y:0 ~local:0 bank,
              Sched.Bound.lifetime_lb bound ~y:0 ~local:0 bank,
              Sched.Bound.stranded_lb bound ~y:0 ~local:0 bank )
          in
          match !reference with
          | None -> reference := Some v
          | Some r ->
              if r <> v then
                Alcotest.failf "%s: bounds changed under permutation" disc_name)
        perms3)
    discs

let () =
  Alcotest.run "bound"
    [
      ( "differential",
        [
          Alcotest.test_case "table5 x battery x objective" `Quick
            test_differential_table5;
          Alcotest.test_case "replay through simulator" `Quick
            test_replay_table5;
          Alcotest.test_case "hand-built pack with an empty cell" `Quick
            test_differential_empty_initial;
          Alcotest.test_case "random loads" `Slow test_differential_random;
        ] );
      ( "properties",
        [
          Alcotest.test_case "admissible along traces" `Slow
            test_admissible_traces;
          Alcotest.test_case "avail_ub hull = scan" `Quick
            test_avail_hull_equals_scan;
          Alcotest.test_case "floor <= upper bound" `Quick test_floor_below_ub;
          Alcotest.test_case "monotone in charge" `Quick
            test_monotone_in_charge;
          Alcotest.test_case "permutation symmetry" `Quick
            test_permutation_symmetry;
        ] );
    ]
