(* End-to-end integration tests over the batsched facade: the experiment
   drivers that regenerate the paper's tables and figures, the ablations,
   and the engine cross-validation. *)

let check_float tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let test_table3_within_tolerance () =
  List.iter
    (fun (r : Batsched.Experiments.validation_row) ->
      check_float 0.015
        (Loads.Testloads.to_string r.load ^ " analytic")
        r.paper_analytic r.analytic;
      check_float 0.005
        (Loads.Testloads.to_string r.load ^ " discrete")
        r.paper_discrete r.discrete)
    (Batsched.Experiments.table3 ())

let test_table4_within_tolerance () =
  List.iter
    (fun (r : Batsched.Experiments.validation_row) ->
      check_float 0.015
        (Loads.Testloads.to_string r.load ^ " analytic")
        r.paper_analytic r.analytic;
      check_float 0.005
        (Loads.Testloads.to_string r.load ^ " discrete")
        r.paper_discrete r.discrete)
    (Batsched.Experiments.table4 ())

let test_table5_within_one_interval () =
  (* deterministic entries within one draw interval (0.04 min) of the
     paper, the optimal column within 0.025 *)
  List.iter
    (fun (r : Batsched.Experiments.schedule_row) ->
      let name = Loads.Testloads.to_string r.load in
      check_float 0.045 (name ^ " seq") r.paper.sequential r.sequential;
      check_float 0.045 (name ^ " rr") r.paper.round_robin r.round_robin;
      check_float 0.045 (name ^ " best2") r.paper.best_of_two r.best_of_two;
      check_float 0.025 (name ^ " optimal") r.paper.optimal r.optimal)
    (Batsched.Experiments.table5 ())

let test_table5_headline_gains () =
  (* the paper's headline: optimal beats round robin by 31.9% on ILs alt
     and 26.2% on ILs r1 *)
  let rows = Batsched.Experiments.table5 () in
  let gain load =
    let r =
      List.find (fun (r : Batsched.Experiments.schedule_row) -> r.load = load) rows
    in
    Batsched.Report.pct_diff r.optimal r.round_robin
  in
  check_float 0.5 "ILs alt gain" 31.9 (gain Loads.Testloads.ILs_alt);
  check_float 0.5 "ILs r1 gain" 26.2 (gain Loads.Testloads.ILs_r1)

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let test_figure6_best_of_two () =
  let f = Batsched.Experiments.figure6 `Best_of_two in
  check_float 0.005 "lifetime" 16.30 f.lifetime;
  (* paper section 6: ~70% of the charge is stranded at death *)
  Alcotest.(check bool)
    (Printf.sprintf "stranded fraction %.2f ~ 0.70" f.stranded_fraction)
    true
    (Float.abs (f.stranded_fraction -. 0.70) < 0.03);
  (* both batteries' totals start full and never increase *)
  (match f.points with
  | first :: _ ->
      check_float 1e-6 "battery 0 starts full" 5.5 first.total.(0);
      check_float 1e-6 "battery 1 starts full" 5.5 first.total.(1)
  | [] -> Alcotest.fail "no points");
  let rec totals_antitone = function
    | (a : Batsched.Experiments.fig6_point) :: (b :: _ as rest) ->
        b.total.(0) <= a.total.(0) +. 1e-9
        && b.total.(1) <= a.total.(1) +. 1e-9
        && totals_antitone rest
    | _ -> true
  in
  Alcotest.(check bool) "total charge antitone" true (totals_antitone f.points);
  (* available charge must rise somewhere (the recovery effect is
     visible in the figure) *)
  let rec available_rises = function
    | (a : Batsched.Experiments.fig6_point) :: (b :: _ as rest) ->
        b.available.(0) > a.available.(0) +. 1e-9 || available_rises rest
    | _ -> false
  in
  Alcotest.(check bool) "recovery visible" true (available_rises f.points)

let test_figure6_best_of_pattern () =
  (* paper section 6: "the best-of-two schedule acts like a round robin
     scheduler that switches batteries after the high current jobs" —
     check it literally on the serving intervals before the first death *)
  let f = Batsched.Experiments.figure6 `Best_of_two in
  let first_death =
    (* the first interval that ends off the 2-minute job grid marks the
       first battery death *)
    List.fold_left
      (fun acc (_, b, _) ->
        let on_grid = Float.abs (b -. (Float.round b)) < 1e-9 in
        if acc = infinity && not on_grid then b else acc)
      infinity f.intervals
  in
  let jobs_before_death =
    List.filter (fun (a, _, _) -> a +. 1e-9 < first_death) f.intervals
  in
  let rec check = function
    | (a1, _, b1) :: (((a2, _, b2) :: _) as rest) when a2 +. 1e-9 < first_death ->
        (* ILs alt starts with the high job at even multiples of 4 min:
           jobs starting at 0, 4, 8... are high; 2, 6, 10... are low *)
        let high1 = Float.rem a1 4.0 < 1.0 in
        let switched = b1 <> b2 in
        if switched <> high1 then
          Alcotest.failf "at %.1f: job high=%b but switched=%b" a1 high1 switched;
        check rest
    | _ -> ()
  in
  check jobs_before_death

let test_figure6_optimal () =
  let f = Batsched.Experiments.figure6 `Optimal in
  check_float 0.005 "lifetime" 16.91 f.lifetime;
  Alcotest.(check bool) "optimal strands less than best-of-two" true
    (f.stranded_fraction < 0.70);
  (* the schedule's serving intervals tile [0, lifetime] jobs *)
  Alcotest.(check bool) "has intervals" true (List.length f.intervals > 5)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let test_capacity_sweep () =
  let rows = Batsched.Experiments.capacity_sweep ~factors:[ 1.0; 2.0; 5.0; 10.0 ] () in
  (match rows with
  | (_, _, f1) :: _ ->
      Alcotest.(check bool) "~70% at factor 1" true (Float.abs (f1 -. 0.70) < 0.03)
  | [] -> Alcotest.fail "no rows");
  (* stranded fraction decreases with capacity; paper: < 10% at 10x *)
  let fracs = List.map (fun (_, _, f) -> f) rows in
  Alcotest.(check bool) "antitone" true
    (List.for_all2 ( >= ) fracs (List.tl fracs @ [ 0.0 ]));
  let _, _, f10 = List.nth rows 3 in
  Alcotest.(check bool)
    (Printf.sprintf "10x stranded %.3f < 0.10" f10)
    true (f10 < 0.10)

let test_complexity_probe () =
  let rows =
    Batsched.Experiments.complexity_probe
      ~loads:[ Loads.Testloads.ILs_alt; Loads.Testloads.ILl_500 ] ()
  in
  List.iter
    (fun (_, decisions, positions, _) ->
      Alcotest.(check bool) "decisions positive" true (decisions > 0);
      Alcotest.(check bool) "positions >= decisions" true (positions >= decisions))
    rows

let test_model_comparison () =
  let rows =
    Batsched.Experiments.model_comparison
      ~loads:[ Loads.Testloads.CL_250; Loads.Testloads.ILs_alt ] ()
  in
  List.iter
    (fun (name, kibam, diffusion) ->
      if Float.is_nan diffusion then
        Alcotest.failf "%s: diffusion survived" (Loads.Testloads.to_string name);
      let rel = Float.abs (diffusion -. kibam) /. kibam in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 25%%" (Loads.Testloads.to_string name))
        true (rel < 0.25))
    rows

let test_cross_validation () =
  let c = Batsched.Experiments.cross_validate () in
  Alcotest.(check bool)
    (Printf.sprintf "TA %d/%d vs fast %d/%d" c.ta_lifetime_steps c.ta_stranded
       c.fast_lifetime_steps c.fast_stranded)
    true c.agrees

let test_paper_data_sanity () =
  (* each transcription covers all ten loads exactly once, in table order *)
  let names rows f = List.map f rows in
  Alcotest.(check (list string))
    "table3 loads"
    (List.map Loads.Testloads.to_string Loads.Testloads.all_names)
    (names Batsched.Paper_data.table3 (fun (r : Batsched.Paper_data.validation_row) ->
         Loads.Testloads.to_string r.load));
  Alcotest.(check (list string))
    "table4 loads"
    (List.map Loads.Testloads.to_string Loads.Testloads.all_names)
    (names Batsched.Paper_data.table4 (fun (r : Batsched.Paper_data.validation_row) ->
         Loads.Testloads.to_string r.load));
  Alcotest.(check (list string))
    "table5 loads"
    (List.map Loads.Testloads.to_string Loads.Testloads.all_names)
    (names Batsched.Paper_data.table5 (fun (r : Batsched.Paper_data.schedule_row) ->
         Loads.Testloads.to_string r.load));
  (* within each Table-5 row the paper's policy ordering holds *)
  List.iter
    (fun (r : Batsched.Paper_data.schedule_row) ->
      if not (r.sequential <= r.round_robin && r.round_robin <= r.best_of_two
              && r.best_of_two <= r.optimal +. 1e-9) then
        Alcotest.failf "%s: published row not ordered"
          (Loads.Testloads.to_string r.load))
    Batsched.Paper_data.table5;
  (* the discretized lifetime never undershoots the analytic one by much
     in the published data either *)
  List.iter
    (fun (r : Batsched.Paper_data.validation_row) ->
      if r.ta_kibam < r.kibam -. 1e-9 then
        Alcotest.failf "%s: published dKiBaM below analytic"
          (Loads.Testloads.to_string r.load))
    Batsched.Paper_data.table3

let test_lookahead_sweep_shape () =
  let rows = Batsched.Experiments.lookahead_sweep ~ks:[ 2; 6 ] () in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  (* last row is the optimum; k = 6 must be within 0.1 of it on r1 *)
  match (List.nth rows 2, List.nth rows 3) with
  | (Some 6, la6), (None, opt) ->
      Alcotest.(check bool)
        (Printf.sprintf "horizon-6 %.2f ~ optimal %.2f" la6 opt)
        true
        (opt -. la6 <= 0.1)
  | _ -> Alcotest.fail "unexpected row structure"

let test_granularity_sweep () =
  let rows =
    Batsched.Experiments.granularity_sweep
      ~grids:[ (0.005, 0.01); (0.01, 0.01); (0.05, 0.05) ] ()
  in
  (match rows with
  | [ fine_t; base; coarse ] ->
      (* refining T alone changes nothing (paper section 4.4) *)
      Alcotest.(check (float 1e-9)) "lifetime T-invariant" base.g_lifetime
        fine_t.g_lifetime;
      Alcotest.(check int) "positions T-invariant" base.g_positions
        fine_t.g_positions;
      (* coarser Gamma loses accuracy *)
      Alcotest.(check bool) "coarse Gamma less accurate" true
        (coarse.g_error_vs_analytic >= base.g_error_vs_analytic)
  | _ -> Alcotest.fail "expected three rows")

let test_multi_battery_monotone () =
  let rows = Batsched.Experiments.multi_battery ~ns:[ 2; 3 ] () in
  let optimal_of (_, (a : Sched.Analysis.t)) =
    (List.find (fun (e : Sched.Analysis.entry) -> e.policy_name = "optimal")
       a.entries)
      .lifetime
  in
  match rows with
  | [ two; three ] ->
      Alcotest.(check bool) "3 batteries beat 2" true
        (optimal_of three > optimal_of two)
  | _ -> Alcotest.fail "expected two rows"

(* The pooled optimal search must reproduce the serial search exactly —
   lifetime, stranded charge AND the reconstructed schedule — on every
   Table 5 load (the acceptance bar for the lib/exec root fan-out), in
   both bound modes.  The solved-position sets only coincide with
   bounds off: with bounds on, pooled branches cut against the fixed
   incumbent alone (cut decisions must not depend on domain timing),
   so they prune less than the serial loop. *)
let test_optimal_pool_bit_identical () =
  let disc = Dkibam.Discretization.paper_b1 in
  Exec.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun bounds ->
          List.iter
            (fun name ->
              let arrays = Batsched.Experiments.arrays_of name in
              let serial =
                Sched.Optimal.search ~bounds ~n_batteries:2 disc arrays
              in
              let pooled =
                Sched.Optimal.search ~bounds ~pool ~n_batteries:2 disc arrays
              in
              let label =
                Printf.sprintf "%s (bounds %b)"
                  (Loads.Testloads.to_string name)
                  bounds
              in
              Alcotest.(check int)
                (label ^ ": lifetime") serial.lifetime_steps
                pooled.lifetime_steps;
              Alcotest.(check int)
                (label ^ ": stranded") serial.stranded_units
                pooled.stranded_units;
              Alcotest.(check (array int))
                (label ^ ": schedule") serial.schedule pooled.schedule;
              if not bounds then
                Alcotest.(check int)
                  (label ^ ": positions explored")
                  serial.stats.positions_explored
                  pooled.stats.positions_explored)
            Loads.Testloads.all_names)
        [ true; false ])

let test_ensemble_smoke () =
  let e =
    Sched.Ensemble.run ~n_loads:4 ~jobs_per_load:25 ~include_optimal:false
      Dkibam.Discretization.paper_b1 ()
  in
  Alcotest.(check int) "three policies" 3 (List.length e.per_policy)

(* ------------------------------------------------------------------ *)
(* Reports render                                                      *)
(* ------------------------------------------------------------------ *)

let test_reports_render () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Batsched.Report.table3 ppf (Batsched.Experiments.table3 ());
  Batsched.Report.table5 ppf (Batsched.Experiments.table5 ());
  Batsched.Report.figure6 ppf ~label:"best-of-two"
    (Batsched.Experiments.figure6 `Best_of_two);
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "nonempty" true (Buffer.length buf > 2000)

let () =
  Alcotest.run "integration"
    [
      ( "tables",
        [
          Alcotest.test_case "Table 3" `Quick test_table3_within_tolerance;
          Alcotest.test_case "Table 4" `Quick test_table4_within_tolerance;
          Alcotest.test_case "Table 5" `Quick test_table5_within_one_interval;
          Alcotest.test_case "headline gains" `Quick test_table5_headline_gains;
        ] );
      ( "figure 6",
        [
          Alcotest.test_case "best-of-two" `Quick test_figure6_best_of_two;
          Alcotest.test_case "best-of-two switches after high jobs" `Quick
            test_figure6_best_of_pattern;
          Alcotest.test_case "optimal" `Quick test_figure6_optimal;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "capacity sweep" `Quick test_capacity_sweep;
          Alcotest.test_case "complexity probe" `Quick test_complexity_probe;
          Alcotest.test_case "model comparison" `Quick test_model_comparison;
          Alcotest.test_case "engine cross-validation" `Quick test_cross_validation;
        ] );
      ( "paper data",
        [ Alcotest.test_case "transcription sanity" `Quick test_paper_data_sanity ] );
      ( "extensions",
        [
          Alcotest.test_case "lookahead sweep" `Quick test_lookahead_sweep_shape;
          Alcotest.test_case "granularity sweep" `Quick test_granularity_sweep;
          Alcotest.test_case "multi-battery" `Quick test_multi_battery_monotone;
          Alcotest.test_case "ensemble smoke" `Quick test_ensemble_smoke;
          Alcotest.test_case "pooled optimal = serial (Table 5 loads)" `Quick
            test_optimal_pool_bit_identical;
        ] );
      ( "reports", [ Alcotest.test_case "render" `Quick test_reports_render ] );
    ]
