(* Tests for the scheduling layer: the multi-battery simulator (against
   the single-battery engine and the paper's Table 5), the policies, the
   optimal search, and the job-placement extension. *)

let disc = Dkibam.Discretization.paper_b1
let enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load
let arrays name = enc (Loads.Testloads.load name)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let test_one_battery_equals_engine () =
  (* with a single battery, every policy must reproduce Dkibam.Engine
     exactly, on every test load *)
  List.iter
    (fun name ->
      let a = arrays name in
      let engine = Dkibam.Engine.lifetime_exn disc a in
      List.iter
        (fun policy ->
          let sim = Sched.Simulator.lifetime_exn ~n_batteries:1 ~policy disc a in
          if sim <> engine then
            Alcotest.failf "%s under %s: simulator %.4f vs engine %.4f"
              (Loads.Testloads.to_string name)
              (Sched.Policy.name policy) sim engine)
        [ Sched.Policy.Sequential; Sched.Policy.Round_robin; Sched.Policy.Best_of ])
    Loads.Testloads.all_names

let test_differential_engine_vs_simulator () =
  (* kernel pin: with a single battery there are no hand-overs, so the
     simulator must agree with the single-battery engine step for step —
     same fatal draw instant, same death bookkeeping, same final battery
     state — on all ten test loads, both battery types, every policy *)
  List.iter
    (fun (disc_name, d) ->
      List.iter
        (fun name ->
          let a = arrays name in
          let engine_step, engine_final =
            match Dkibam.Engine.run d a with
            | Dkibam.Engine.Dies_at_step (s, b) -> (s, b)
            | Dkibam.Engine.Survives _ ->
                Alcotest.failf "%s (%s): engine survived"
                  (Loads.Testloads.to_string name)
                  disc_name
          in
          List.iter
            (fun policy ->
              let o = Sched.Simulator.simulate ~n_batteries:1 ~policy d a in
              let fail fmt =
                Alcotest.failf
                  ("%s (%s, %s): " ^^ fmt)
                  (Loads.Testloads.to_string name)
                  disc_name
                  (Sched.Policy.name policy)
              in
              (match o.lifetime_steps with
              | Some s when s = engine_step -> ()
              | Some s -> fail "engine dies at step %d, simulator %d" engine_step s
              | None -> fail "simulator survived");
              (match o.deaths with
              | [ (0, s) ] when s = engine_step -> ()
              | _ -> fail "death bookkeeping disagrees");
              if not (Dkibam.Battery.equal o.final.(0) engine_final) then
                fail "final battery state disagrees")
            [ Sched.Policy.Sequential; Sched.Policy.Round_robin; Sched.Policy.Best_of ])
        Loads.Testloads.all_names)
    [
      ("B1", Dkibam.Discretization.paper_b1);
      ("B2", Dkibam.Discretization.paper_b2);
    ]

(* Table 5, deterministic columns: (load, seq, rr, best2).  With the
   1-step hand-over delay, 17 of 24 entries are exact; the paper's model
   leaves the hand-over timing open within one draw interval, so the
   remaining entries may differ by at most one interval (0.04 min). *)
let paper_table5 =
  [
    (Loads.Testloads.CL_250, 9.12, 11.60, 11.60);
    (CL_500, 4.10, 4.53, 4.53);
    (CL_alt, 5.48, 6.10, 6.12);
    (ILs_250, 22.80, 38.96, 38.96);
    (ILs_500, 8.60, 10.48, 10.48);
    (ILs_alt, 12.38, 12.82, 16.30);
    (ILs_r1, 12.80, 16.26, 16.26);
    (ILs_r2, 12.24, 14.50, 14.50);
    (ILl_250, 45.84, 76.00, 76.00);
    (ILl_500, 12.94, 15.96, 15.96);
  ]

let test_table5_deterministic_columns () =
  let exact = ref 0 and total = ref 0 in
  List.iter
    (fun (name, p_seq, p_rr, p_b2) ->
      let a = arrays name in
      let lt policy = Sched.Simulator.lifetime_exn ~n_batteries:2 ~policy disc a in
      List.iter
        (fun (policy, expected) ->
          incr total;
          let got = lt policy in
          let diff = Float.abs (got -. expected) in
          if diff < 0.005 then incr exact
          else if diff > 0.045 then
            Alcotest.failf "%s %s: paper %.2f, got %.4f (off by > one interval)"
              (Loads.Testloads.to_string name)
              (Sched.Policy.name policy) expected got)
        [
          (Sched.Policy.Sequential, p_seq);
          (Sched.Policy.Round_robin, p_rr);
          (Sched.Policy.Best_of, p_b2);
        ])
    paper_table5;
  if !exact < 22 then
    Alcotest.failf "only %d/%d Table 5 deterministic entries exact" !exact !total

let test_two_batteries_beat_one () =
  List.iter
    (fun name ->
      let a = arrays name in
      let one = Dkibam.Engine.lifetime_exn disc a in
      let two =
        Sched.Simulator.lifetime_exn ~n_batteries:2 ~policy:Sched.Policy.Sequential
          disc a
      in
      if two <= one then
        Alcotest.failf "%s: 2 batteries (%.2f) <= 1 battery (%.2f)"
          (Loads.Testloads.to_string name)
          two one)
    Loads.Testloads.all_names

let test_deaths_and_intervals_consistent () =
  let a = arrays Loads.Testloads.ILs_alt in
  let o =
    Sched.Simulator.simulate ~n_batteries:2 ~policy:Sched.Policy.Best_of disc a
  in
  check_int "both batteries die" 2 (List.length o.deaths);
  (match o.lifetime_steps with
  | Some s ->
      let last_death = List.fold_left (fun acc (_, d) -> max acc d) 0 o.deaths in
      check_int "lifetime = last death" s last_death
  | None -> Alcotest.fail "batteries survived ILs alt");
  (* serving intervals are chronological and non-overlapping *)
  let rec non_overlapping = function
    | (_, b, _) :: ((a', _, _) :: _ as rest) -> a' >= b && non_overlapping rest
    | _ -> true
  in
  Alcotest.(check bool) "intervals ordered" true
    (non_overlapping o.serving_intervals)

let test_round_robin_order () =
  let a = arrays Loads.Testloads.ILs_250 in
  let o =
    Sched.Simulator.simulate ~n_batteries:3 ~policy:Sched.Policy.Round_robin disc a
  in
  (* first three decisions must cycle 0, 1, 2 *)
  match o.decisions with
  | (0, b0) :: (1, b1) :: (2, b2) :: _ ->
      check_int "first" 0 b0;
      check_int "second" 1 b1;
      check_int "third" 2 b2
  | _ -> Alcotest.fail "missing decisions"

let test_best_of_prefers_fuller_battery () =
  let fresh = Dkibam.Battery.full disc in
  let drained = Dkibam.Battery.make disc ~n_gamma:300 ~m_delta:50 ~recov_clock:0 in
  let ctx =
    {
      Sched.Policy.disc;
      job_index = 0;
      epoch_index = 0;
      step = 0;
      mid_job = false;
      batteries = [| drained; fresh |];
      alive = [ 0; 1 ];
      cursor = None;
    }
  in
  check_int "picks battery 1" 1 (Sched.Policy.decide Sched.Policy.Best_of ~state:(ref 0) ctx);
  (* ties break to the lowest id *)
  let ctx_tie = { ctx with batteries = [| fresh; fresh |] } in
  check_int "tie -> 0" 0 (Sched.Policy.decide Sched.Policy.Best_of ~state:(ref 0) ctx_tie)

let test_fixed_policy_follows_schedule () =
  let a = arrays Loads.Testloads.ILs_alt in
  let o =
    Sched.Simulator.simulate ~n_batteries:2
      ~policy:(Sched.Policy.Fixed [| 1; 1; 0; 0 |])
      disc a
  in
  match o.decisions with
  | (0, 1) :: (1, 1) :: (2, 0) :: (3, 0) :: _ -> ()
  | _ -> Alcotest.fail "fixed schedule not honoured"

let test_custom_policy_validation () =
  let a = arrays Loads.Testloads.CL_250 in
  Alcotest.(check bool) "bad custom rejected" true
    (try
       ignore
         (Sched.Simulator.simulate ~n_batteries:2
            ~policy:(Sched.Policy.Custom (fun _ -> 7))
            disc a);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Optimal search                                                      *)
(* ------------------------------------------------------------------ *)

let paper_optimal =
  [
    (Loads.Testloads.CL_250, 12.04);
    (CL_500, 4.58);
    (CL_alt, 6.48);
    (ILs_250, 40.80);
    (ILs_500, 10.48);
    (ILs_alt, 16.91);
    (ILs_r1, 20.52);
    (ILs_r2, 14.54);
    (ILl_250, 78.96);
    (ILl_500, 18.68);
  ]

let test_optimal_column_vs_paper () =
  List.iter
    (fun (name, expected) ->
      let got = Sched.Optimal.lifetime ~n_batteries:2 disc (arrays name) in
      if Float.abs (got -. expected) > 0.025 then
        Alcotest.failf "%s: paper optimal %.2f, got %.4f"
          (Loads.Testloads.to_string name)
          expected got)
    paper_optimal

let test_optimal_dominates_policies () =
  List.iter
    (fun name ->
      let a = arrays name in
      let opt = Sched.Optimal.lifetime ~n_batteries:2 disc a in
      List.iter
        (fun policy ->
          let lt = Sched.Simulator.lifetime_exn ~n_batteries:2 ~policy disc a in
          if lt > opt +. 1e-9 then
            Alcotest.failf "%s: %s (%.4f) beats optimal (%.4f)"
              (Loads.Testloads.to_string name)
              (Sched.Policy.name policy) lt opt)
        [ Sched.Policy.Sequential; Sched.Policy.Round_robin; Sched.Policy.Best_of ])
    Loads.Testloads.all_names

let test_optimal_replay () =
  (* the schedule found by search, replayed through the simulator as a
     Fixed policy, reproduces the same lifetime *)
  List.iter
    (fun name ->
      let a = arrays name in
      let r = Sched.Optimal.search ~n_batteries:2 disc a in
      let replay =
        Sched.Simulator.simulate ~n_batteries:2
          ~policy:(Sched.Policy.Fixed r.schedule) disc a
      in
      match replay.lifetime_steps with
      | Some s when s = r.lifetime_steps -> ()
      | Some s ->
          Alcotest.failf "%s: search %d steps, replay %d"
            (Loads.Testloads.to_string name)
            r.lifetime_steps s
      | None -> Alcotest.failf "%s: replay survived" (Loads.Testloads.to_string name))
    [ Loads.Testloads.CL_alt; ILs_alt; ILs_r1; ILl_500 ]

let test_optimal_sequential_is_worst () =
  (* the paper's section 6 claim, verified literally: searching for the
     WORST schedule yields exactly the sequential policy's lifetime *)
  List.iter
    (fun name ->
      let a = arrays name in
      let pessimal =
        Sched.Optimal.search ~objective:Sched.Optimal.Min_lifetime
          ~n_batteries:2 disc a
      in
      let seq =
        Sched.Simulator.simulate ~n_batteries:2 ~policy:Sched.Policy.Sequential
          disc a
      in
      match seq.lifetime_steps with
      | Some s when s = pessimal.lifetime_steps -> ()
      | Some s ->
          Alcotest.failf "%s: pessimal %d steps vs sequential %d"
            (Loads.Testloads.to_string name)
            pessimal.lifetime_steps s
      | None -> Alcotest.failf "%s: sequential survived" (Loads.Testloads.to_string name))
    [ Loads.Testloads.CL_alt; ILs_alt; ILs_r2; ILl_500 ]

let test_min_stranded_objective () =
  let a = arrays Loads.Testloads.ILs_alt in
  let max_lt = Sched.Optimal.search ~n_batteries:2 disc a in
  let min_str =
    Sched.Optimal.search ~objective:Sched.Optimal.Min_stranded ~n_batteries:2 disc a
  in
  (* minimizing stranded charge can never strand more than the
     lifetime-maximal schedule *)
  Alcotest.(check bool) "stranded ordering" true
    (min_str.stranded_units <= max_lt.stranded_units)

let test_optimal_three_batteries () =
  let a = arrays Loads.Testloads.ILs_alt in
  let two = Sched.Optimal.lifetime ~n_batteries:2 disc a in
  let three = Sched.Optimal.lifetime ~n_batteries:3 disc a in
  Alcotest.(check bool)
    (Printf.sprintf "3 batteries (%.2f) > 2 (%.2f)" three two)
    true (three > two)

let test_heterogeneous_pack () =
  (* a full battery plus a half-drained backup: the optimum dominates
     every policy on the same initial pack, and beats the lone battery *)
  let a = arrays Loads.Testloads.ILs_alt in
  let initial =
    [|
      Dkibam.Battery.full disc;
      Dkibam.Battery.make disc ~n_gamma:275 ~m_delta:0 ~recov_clock:0;
    |]
  in
  let opt = Sched.Optimal.search ~initial ~n_batteries:2 disc a in
  List.iter
    (fun policy ->
      let o = Sched.Simulator.simulate ~initial ~n_batteries:2 ~policy disc a in
      match o.lifetime_steps with
      | Some s ->
          if s > opt.lifetime_steps then
            Alcotest.failf "%s beats heterogeneous optimum"
              (Sched.Policy.name policy)
      | None -> Alcotest.fail "survived")
    [ Sched.Policy.Sequential; Sched.Policy.Round_robin; Sched.Policy.Best_of ];
  let solo = Dkibam.Engine.lifetime_exn disc a in
  Alcotest.(check bool) "backup extends life" true
    (Dkibam.Discretization.minutes_of_steps disc opt.lifetime_steps > solo)

let test_load_too_short () =
  let a = enc (Loads.Epoch.job ~current:0.25 ~duration:1.0) in
  Alcotest.check_raises "short load" Sched.Optimal.Load_too_short (fun () ->
      ignore (Sched.Optimal.search ~n_batteries:2 disc a))

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let test_analysis_matches_simulator () =
  let a = arrays Loads.Testloads.ILs_alt in
  let r = Sched.Analysis.compare_policies ~n_batteries:2 disc a in
  Alcotest.(check int) "four entries" 4 (List.length r.entries);
  let find name =
    List.find (fun (e : Sched.Analysis.entry) -> e.policy_name = name) r.entries
  in
  Alcotest.(check (float 1e-9)) "best-of" 16.30 (find "best-of").lifetime;
  Alcotest.(check (float 1e-9)) "optimal" 16.91 (find "optimal").lifetime;
  Alcotest.(check (float 0.05)) "paper's +31.9%" 31.9
    (find "optimal").gain_over_baseline;
  (* baseline gain is zero by construction *)
  Alcotest.(check (float 1e-9)) "baseline" 0.0 (find "round robin").gain_over_baseline

let test_analysis_custom_baseline () =
  let a = arrays Loads.Testloads.ILs_alt in
  let r =
    Sched.Analysis.compare_policies ~baseline:"sequential" ~include_optimal:false
      ~n_batteries:2 disc a
  in
  let seq =
    List.find (fun (e : Sched.Analysis.entry) -> e.policy_name = "sequential") r.entries
  in
  Alcotest.(check (float 1e-9)) "baseline zero" 0.0 seq.gain_over_baseline

let test_analysis_bad_baseline () =
  let a = arrays Loads.Testloads.ILs_alt in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Sched.Analysis.compare_policies ~baseline:"nope" ~n_batteries:2 disc a);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Random-load ensembles                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_of () =
  let s = Sched.Ensemble.stats_of [ 3.0; 1.0; 2.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.minimum;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.maximum;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.median;
  Alcotest.(check (float 1e-9)) "q25" 2.0 s.q25;
  Alcotest.(check (float 1e-9)) "q75" 4.0 s.q75;
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.0) s.stddev;
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Sched.Ensemble.stats_of []); false
     with Invalid_argument _ -> true)

let test_ensemble_deterministic_and_ordered () =
  let run () =
    Sched.Ensemble.run ~seed:7L ~n_loads:6 ~jobs_per_load:30
      ~include_optimal:true disc ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "deterministic" true (a = b);
  let find name = List.assoc name a.per_policy in
  let seq = find "sequential" and rr = find "round robin" in
  let bo = find "best-of" and opt = find "optimal" in
  (* policy ordering holds for the means *)
  Alcotest.(check bool) "seq <= rr (mean)" true (seq.mean <= rr.mean +. 1e-9);
  Alcotest.(check bool) "rr <= best-of (mean)" true (rr.mean <= bo.mean +. 1e-9);
  Alcotest.(check bool) "best-of <= optimal (mean)" true (bo.mean <= opt.mean +. 1e-9);
  (* gains are non-negative: the optimum dominates round robin per load *)
  Alcotest.(check bool) "gain >= 0" true (a.top_gain_over_rr.minimum >= -1e-9);
  Alcotest.(check bool) "fraction in [0,1]" true
    (a.best_of_matches_top_fraction >= 0.0
    && a.best_of_matches_top_fraction <= 1.0);
  Alcotest.(check string) "baseline is the optimum" "optimal" a.gain_baseline

let test_ensemble_pool_bit_identical () =
  let run ?pool () =
    Sched.Ensemble.run ?pool ~seed:7L ~n_loads:6 ~jobs_per_load:30
      ~include_optimal:true disc ()
  in
  let serial = run () in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          let parallel = run ~pool () in
          Alcotest.(check bool)
            (Printf.sprintf "pool of %d = serial" domains)
            true (serial = parallel)))
    [ 1; 2; 4 ]

let test_ensemble_baseline_without_optimal () =
  let e =
    Sched.Ensemble.run ~seed:7L ~n_loads:4 ~jobs_per_load:25
      ~include_optimal:false disc ()
  in
  Alcotest.(check string) "baseline surfaced" "best-of" e.gain_baseline;
  (* with best-of as its own baseline, the match fraction is trivial *)
  Alcotest.(check (float 1e-9)) "trivial fraction" 1.0
    e.best_of_matches_top_fraction

(* ------------------------------------------------------------------ *)
(* Job placement (section 7 outlook)                                   *)
(* ------------------------------------------------------------------ *)

let small_cell = Dkibam.Discretization.make (Kibam.Params.make ~c:0.166 ~k':0.122 ~capacity:3.3)

let bursts n = List.init n (fun _ -> Sched.Job_placement.job ~deadline:40.0 ~duration:1.0 ~current:0.25 ())

let test_placement_asap_packs () =
  match Sched.Job_placement.asap small_cell (bursts 2) with
  | Sched.Job_placement.Feasible p ->
      Alcotest.(check (list (float 1e-9))) "back to back" [ 0.0; 1.0 ] p.starts
  | _ -> Alcotest.fail "two bursts must be feasible asap"

let test_placement_optimize_beats_asap () =
  (* six bursts kill the battery back-to-back but survive when spread *)
  (match Sched.Job_placement.asap small_cell (bursts 6) with
  | Sched.Job_placement.Battery_dies -> ()
  | _ -> Alcotest.fail "asap should die");
  match Sched.Job_placement.optimize ~grid:1.0 small_cell (bursts 6) with
  | Sched.Job_placement.Feasible p ->
      Alcotest.(check bool) "headroom positive" true (p.headroom > 0.0);
      Alcotest.(check bool) "meets deadline" true (p.completion <= 40.0);
      (* starts are sorted and respect durations *)
      let rec ordered = function
        | a :: (b :: _ as rest) -> b >= a +. 1.0 && ordered rest
        | _ -> true
      in
      Alcotest.(check bool) "starts feasible" true (ordered p.starts)
  | _ -> Alcotest.fail "optimizer should find a feasible spread"

let test_placement_optimize_at_least_asap () =
  (* when asap is feasible, the optimizer must do at least as well *)
  let jobs = bursts 2 in
  match
    (Sched.Job_placement.asap small_cell jobs,
     Sched.Job_placement.optimize ~grid:1.0 small_cell jobs)
  with
  | Sched.Job_placement.Feasible a, Sched.Job_placement.Feasible o ->
      Alcotest.(check bool) "headroom >= asap" true (o.headroom >= a.headroom -. 1e-9)
  | _ -> Alcotest.fail "both must be feasible"

let test_placement_window_infeasible () =
  let jobs =
    [
      Sched.Job_placement.job ~duration:1.0 ~current:0.1 ();
      Sched.Job_placement.job ~release:0.0 ~deadline:1.5 ~duration:1.0 ~current:0.1 ();
    ]
  in
  (match Sched.Job_placement.asap small_cell jobs with
  | Sched.Job_placement.Window_infeasible 1 -> ()
  | _ -> Alcotest.fail "expected window infeasibility at job 1");
  match Sched.Job_placement.optimize small_cell jobs with
  | Sched.Job_placement.Window_infeasible 1 -> ()
  | _ -> Alcotest.fail "optimizer must also report it"

let test_placement_job_validation () =
  Alcotest.(check bool) "window too small" true
    (try
       ignore (Sched.Job_placement.job ~release:5.0 ~deadline:5.5 ~duration:1.0 ~current:0.1 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* simulator structural invariants on random toy instances *)
let prop_simulator_invariants =
  QCheck.Test.make ~name:"simulator invariants on random loads" ~count:30
    QCheck.(pair (int_range 1 3) (list_of_size (Gen.int_range 4 10) bool))
    (fun (n_batteries, picks) ->
      let toy = Dkibam.Discretization.make ~time_step:0.1 ~charge_unit:0.1
          (Kibam.Params.make ~c:0.166 ~k':0.122 ~capacity:8.0)
      in
      let load =
        Loads.Epoch.concat
          (List.map
             (fun high ->
               Loads.Epoch.append
                 (Loads.Epoch.job ~current:(if high then 2.0 else 1.0) ~duration:2.0)
                 (Loads.Epoch.idle 1.0))
             picks
          @ [ Loads.Epoch.job ~current:2.0 ~duration:400.0 ])
      in
      let a = Loads.Arrays.make ~time_step:0.1 ~charge_unit:0.1 load in
      let o =
        Sched.Simulator.simulate ~n_batteries ~policy:Sched.Policy.Best_of toy a
      in
      (* every battery dies exactly once, chronologically *)
      List.length o.deaths = n_batteries
      && List.sort_uniq compare (List.map fst o.deaths)
         = List.init n_batteries Fun.id
      && (let steps = List.map snd o.deaths in
          List.sort compare steps = steps)
      (* lifetime is the last death *)
      && o.lifetime_steps
         = Some (List.fold_left (fun acc (_, s) -> max acc s) 0 o.deaths)
      (* serving intervals are well-formed and chronological *)
      && List.for_all (fun (a', b, bat) -> a' <= b && bat >= 0 && bat < n_batteries)
           o.serving_intervals
      && (let rec mono = function
            | (_, b, _) :: ((a', _, _) :: _ as rest) -> a' >= b && mono rest
            | _ -> true
          in
          mono o.serving_intervals))

(* small random instances: optimal >= every deterministic policy *)
let prop_optimal_dominates_random_loads =
  QCheck.Test.make ~name:"optimal dominates policies on random loads" ~count:20
    QCheck.(list_of_size (Gen.int_range 4 10) bool)
    (fun picks ->
      let toy = Dkibam.Discretization.make ~time_step:0.1 ~charge_unit:0.1
          (Kibam.Params.make ~c:0.166 ~k':0.122 ~capacity:8.0)
      in
      let load =
        Loads.Epoch.concat
          (List.map
             (fun high ->
               Loads.Epoch.append
                 (Loads.Epoch.job ~current:(if high then 2.0 else 1.0) ~duration:2.0)
                 (Loads.Epoch.idle 1.0))
             picks
          @ [ Loads.Epoch.job ~current:2.0 ~duration:200.0 ])
      in
      let a = Loads.Arrays.make ~time_step:0.1 ~charge_unit:0.1 load in
      let opt = Sched.Optimal.lifetime ~n_batteries:2 toy a in
      List.for_all
        (fun policy ->
          Sched.Simulator.lifetime_exn ~n_batteries:2 ~policy toy a <= opt +. 1e-9)
        [ Sched.Policy.Sequential; Sched.Policy.Round_robin; Sched.Policy.Best_of ])

let () =
  Alcotest.run "sched"
    [
      ( "simulator",
        [
          Alcotest.test_case "1 battery = engine (all loads)" `Quick
            test_one_battery_equals_engine;
          Alcotest.test_case "differential: engine vs simulator, step-for-step"
            `Quick test_differential_engine_vs_simulator;
          Alcotest.test_case "Table 5 deterministic columns" `Quick
            test_table5_deterministic_columns;
          Alcotest.test_case "two beat one" `Quick test_two_batteries_beat_one;
          Alcotest.test_case "deaths/intervals consistent" `Quick
            test_deaths_and_intervals_consistent;
          Alcotest.test_case "round robin order" `Quick test_round_robin_order;
          Alcotest.test_case "best-of comparison" `Quick
            test_best_of_prefers_fuller_battery;
          Alcotest.test_case "fixed schedule" `Quick test_fixed_policy_follows_schedule;
          Alcotest.test_case "custom validation" `Quick test_custom_policy_validation;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "Table 5 optimal column" `Quick
            test_optimal_column_vs_paper;
          Alcotest.test_case "dominates policies" `Quick test_optimal_dominates_policies;
          Alcotest.test_case "schedule replay" `Quick test_optimal_replay;
          Alcotest.test_case "sequential worst" `Quick test_optimal_sequential_is_worst;
          Alcotest.test_case "min-stranded objective" `Quick test_min_stranded_objective;
          Alcotest.test_case "three batteries" `Quick test_optimal_three_batteries;
          Alcotest.test_case "heterogeneous pack" `Quick test_heterogeneous_pack;
          Alcotest.test_case "load too short" `Quick test_load_too_short;
          QCheck_alcotest.to_alcotest prop_optimal_dominates_random_loads;
          QCheck_alcotest.to_alcotest prop_simulator_invariants;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "matches simulator + paper gain" `Quick
            test_analysis_matches_simulator;
          Alcotest.test_case "custom baseline" `Quick test_analysis_custom_baseline;
          Alcotest.test_case "bad baseline" `Quick test_analysis_bad_baseline;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "stats" `Quick test_stats_of;
          Alcotest.test_case "deterministic + ordered" `Quick
            test_ensemble_deterministic_and_ordered;
          Alcotest.test_case "pool of 1/2/4 bit-identical" `Quick
            test_ensemble_pool_bit_identical;
          Alcotest.test_case "best-of baseline surfaced" `Quick
            test_ensemble_baseline_without_optimal;
        ] );
      ( "job placement",
        [
          Alcotest.test_case "asap packs" `Quick test_placement_asap_packs;
          Alcotest.test_case "optimize beats asap" `Quick
            test_placement_optimize_beats_asap;
          Alcotest.test_case "optimize >= asap" `Quick
            test_placement_optimize_at_least_asap;
          Alcotest.test_case "window infeasible" `Quick test_placement_window_infeasible;
          Alcotest.test_case "job validation" `Quick test_placement_job_validation;
        ] );
    ]
