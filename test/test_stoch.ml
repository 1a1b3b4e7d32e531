(* The stochastic fleet layer: generator determinism and split-seed
   isolation, Loads.Spec/Arrays acceptance of every compiled trace,
   sketch accuracy, Monte Carlo estimates vs exhaustive enumeration on
   a tiny 2-state model, --jobs/batch/block invariance of the reduced
   distributions, and well-formed partial estimates under budget trips.

   Seeding follows the CI chaos protocol: the randomized sweeps read
   CHAOS_SEED when set (so a CI failure reproduces locally with
   [CHAOS_SEED=... dune runtest]) and every failure message logs it. *)

let chaos_seed = Guard.Chaos.seed_from_env ~default:20260808L ()

let failf fmt =
  Printf.ksprintf (fun m -> Alcotest.failf "[seed %Ld] %s" chaos_seed m) fmt

let paper_grid load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load

(* ------------------------------------------------------------------ *)
(* Split-seed derivation                                               *)
(* ------------------------------------------------------------------ *)

let test_split_pure () =
  Alcotest.(check int64)
    "split is a pure function" (Prng.Splitmix.split 42L 5)
    (Prng.Splitmix.split 42L 5);
  if Prng.Splitmix.split 42L 5 = Prng.Splitmix.split 42L 6 then
    failf "adjacent lanes collided";
  if Prng.Splitmix.split 42L 5 = Prng.Splitmix.split 43L 5 then
    failf "adjacent roots collided";
  (match Prng.Splitmix.split 1L (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> failf "negative lane index accepted")

let test_split_isolation () =
  (* Lane [i] regenerated alone must equal lane [i] generated as part
     of a full in-order fleet — and the order of sampling must not
     matter, because each lane owns an independent stream. *)
  let m = Stoch.Onoff.make ~slots:12 () in
  let lane i = Stoch.Onoff.sample m ~seed:(Prng.Splitmix.split chaos_seed i) in
  let in_order = Array.init 10 lane in
  let reversed = Array.init 10 (fun i -> lane (9 - i)) in
  for i = 0 to 9 do
    if not (Loads.Epoch.equal in_order.(i) reversed.(9 - i)) then
      failf "lane %d depends on sampling order" i;
    if not (Loads.Epoch.equal in_order.(i) (lane i)) then
      failf "lane %d not reproducible in isolation" i
  done

(* ------------------------------------------------------------------ *)
(* Generators: determinism, invariants, Spec/Arrays acceptance         *)
(* ------------------------------------------------------------------ *)

let test_onoff_deterministic () =
  let m = Stoch.Onoff.make ~slots:30 () in
  if not (Loads.Epoch.equal (Stoch.Onoff.sample m ~seed:5L)
            (Stoch.Onoff.sample m ~seed:5L))
  then failf "onoff: same seed, different trace";
  if Loads.Epoch.equal (Stoch.Onoff.sample m ~seed:5L)
       (Stoch.Onoff.sample m ~seed:6L)
  then failf "onoff: different seeds produced the same 30-slot trace"

let check_roundtrip what load =
  let s = Loads.Spec.to_string load in
  (match Loads.Spec.parse_result s with
  | Error e -> failf "%s: spec rejected its own rendering: %s" what
                 (Guard.Error.to_string e)
  | Ok back ->
      if not (Loads.Epoch.equal back load) then
        failf "%s: spec round-trip changed the load: %s" what s);
  match paper_grid load with
  | exception Loads.Arrays.Not_representable msg ->
      failf "%s: not representable on the paper grid: %s" what msg
  | a -> Loads.Arrays.validate a

let test_onoff_compiles () =
  let m = Stoch.Onoff.make ~slots:25 () in
  for i = 0 to 19 do
    let load = Stoch.Onoff.sample m ~seed:(Prng.Splitmix.split chaos_seed i) in
    check_roundtrip "onoff" load;
    Alcotest.(check (float 1e-9))
      "onoff horizon" 25.0 (Loads.Epoch.duration load);
    List.iter
      (function
        | Loads.Epoch.Job { current; duration } ->
            if duration <> 1.0 then failf "onoff: job spans %g slots" duration;
            if not (Array.mem current m.Stoch.Onoff.currents) then
              failf "onoff: job current %g not in the model" current
        | Loads.Epoch.Idle d ->
            if not (d > 0.0) then failf "onoff: non-positive idle")
      (Loads.Epoch.epochs load)
  done

let test_env_compiles () =
  let m = Stoch.Env.make ~slots:25 () in
  for i = 0 to 19 do
    let load = Stoch.Env.sample m ~seed:(Prng.Splitmix.split chaos_seed i) in
    check_roundtrip "env" load;
    Alcotest.(check (float 1e-9))
      "env horizon" 25.0 (Loads.Epoch.duration load);
    (* no two consecutive idle epochs: distinct levels guarantee it *)
    let rec no_adjacent_idles = function
      | Loads.Epoch.Idle _ :: Loads.Epoch.Idle _ :: _ ->
          failf "env: adjacent idle epochs"
      | _ :: rest -> no_adjacent_idles rest
      | [] -> ()
    in
    no_adjacent_idles (Loads.Epoch.epochs load);
    List.iter
      (function
        | Loads.Epoch.Job { current; _ } ->
            if not (Array.mem current m.Stoch.Env.levels) then
              failf "env: job current %g not a model level" current
        | Loads.Epoch.Idle _ -> ())
      (Loads.Epoch.epochs load)
  done

(* A model's realized chain rendered straight into the integer arrays
   equals [Loads.Arrays.make] of the same trace rendered as epochs, bit
   for bit — exceptions included — on random models and four grids: the
   paper's, a coarse one, one that cannot encode a current, and one the
   slot is off. *)
let test_arrays_match_epochs () =
  let g = Prng.Splitmix.create (Int64.add chaos_seed 31L) in
  let grids = [ (0.01, 0.01); (0.25, 0.05); (0.01, 0.01); (0.01, 0.01) ] in
  let outcome f =
    match f () with
    | (a : Loads.Arrays.t) -> Ok a
    | exception Loads.Arrays.Not_representable msg -> Error msg
  in
  let errors = ref 0 in
  List.iteri
    (fun gi (time_step, charge_unit) ->
      (* grid 2 gets a current off every exact fraction, grid 3 a slot
         off the time grid *)
      let odd_current = if gi = 2 then [| 0.3141592653589793 |] else [||] in
      let slot = if gi = 3 then 1.005 else 1.0 in
      for k = 0 to 11 do
        let p () = 0.05 +. Prng.Splitmix.float g 0.9 in
        let currents =
          Array.append odd_current
            (Array.init (1 + Prng.Splitmix.int g 3) (fun _ ->
                 0.25 *. float_of_int (1 + Prng.Splitmix.int g 6)))
        in
        let slots = 1 + Prng.Splitmix.int g 60 in
        let model =
          if k mod 2 = 0 then
            Sched.Montecarlo.Onoff
              (Stoch.Onoff.make ~p_on:(p ()) ~p_off:(p ()) ~currents ~slot ~slots ())
          else
            Sched.Montecarlo.Env
              (Stoch.Env.make
                 ~levels:(Array.append [| 0.0 |] (Array.of_list (List.sort_uniq compare (Array.to_list currents))))
                 ~mean_dwell:(1.0 +. Prng.Splitmix.float g 6.0) ~slot ~slots ())
        in
        for i = 0 to 49 do
          let seed = Prng.Splitmix.split chaos_seed ((100 * k) + i) in
          let direct =
            outcome (fun () ->
                match model with
                | Sched.Montecarlo.Onoff m -> Stoch.Onoff.arrays m ~seed ~time_step ~charge_unit
                | Sched.Montecarlo.Env m -> Stoch.Env.arrays m ~seed ~time_step ~charge_unit)
          in
          let via_epochs =
            outcome (fun () ->
                Loads.Arrays.make ~time_step ~charge_unit
                  (Sched.Montecarlo.sample_load model ~seed))
          in
          if compare direct via_epochs <> 0 then
            failf "grid %d, %s model %d, lane %d: direct arrays differ from the epochs'" gi
              (Sched.Montecarlo.model_name model) k i;
          if Result.is_error direct then incr errors
        done
      done)
    grids;
  if !errors = 0 then failf "no case raised Not_representable";
  (* and Montecarlo's own sampler, at the paper grid *)
  let model = Sched.Montecarlo.Onoff (Stoch.Onoff.make ~slots:40 ()) in
  for i = 0 to 99 do
    let seed = Prng.Splitmix.split chaos_seed i in
    if
      compare
        (Sched.Montecarlo.sample_arrays model ~seed Dkibam.Discretization.paper_b1)
        (paper_grid (Sched.Montecarlo.sample_load model ~seed))
      <> 0
    then failf "Montecarlo.sample_arrays differs on lane %d" i
  done

let test_generator_validation () =
  let rejects what f =
    match f () with
    | exception Guard.Error.Error _ -> ()
    | _ -> failf "%s accepted" what
  in
  rejects "p_on = 1.5" (fun () -> Stoch.Onoff.make ~p_on:1.5 ~slots:5 ());
  rejects "p_on = p_off = 0" (fun () ->
      Stoch.Onoff.make ~p_on:0.0 ~p_off:0.0 ~slots:5 ());
  rejects "empty currents" (fun () ->
      Stoch.Onoff.make ~currents:[||] ~slots:5 ());
  rejects "negative current" (fun () ->
      Stoch.Onoff.make ~currents:[| -0.5 |] ~slots:5 ());
  rejects "zero slots" (fun () -> Stoch.Onoff.make ~slots:0 ());
  rejects "single level" (fun () -> Stoch.Env.make ~levels:[| 0.5 |] ~slots:5 ());
  rejects "duplicate levels" (fun () ->
      Stoch.Env.make ~levels:[| 0.25; 0.25; 0.5 |] ~slots:5 ());
  rejects "all-idle env" (fun () ->
      Stoch.Env.make ~levels:[| 0.0 |] ~slots:5 ());
  rejects "sub-slot dwell" (fun () -> Stoch.Env.make ~mean_dwell:0.5 ~slots:5 ());
  Alcotest.(check (float 1e-12))
    "stationary on-fraction" 0.25
    (Stoch.Onoff.stationary_on
       (Stoch.Onoff.make ~p_on:0.1 ~p_off:0.3 ~slots:5 ()))

(* ------------------------------------------------------------------ *)
(* Sketches                                                            *)
(* ------------------------------------------------------------------ *)

let test_moments () =
  let g = Prng.Splitmix.create chaos_seed in
  let xs = Array.init 500 (fun _ -> Prng.Splitmix.float g 10.0) in
  let m = Stoch.Sketch.Moments.create () in
  Array.iter (Stoch.Sketch.Moments.add m) xs;
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n
  in
  Alcotest.(check int) "count" 500 (Stoch.Sketch.Moments.count m);
  Alcotest.(check (float 1e-9)) "mean" mean (Stoch.Sketch.Moments.mean m);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt var)
    (Stoch.Sketch.Moments.stddev m)

let test_p2_small_exact () =
  let s = Stoch.Sketch.P2.create 0.5 in
  Alcotest.(check (option (float 0.0))) "empty" None
    (Stoch.Sketch.P2.quantile s);
  List.iter (Stoch.Sketch.P2.add s) [ 9.0; 1.0; 5.0 ];
  Alcotest.(check (option (float 0.0)))
    "median of three, exact" (Some 5.0)
    (Stoch.Sketch.P2.quantile s)

let test_p2_accuracy () =
  let g = Prng.Splitmix.create (Int64.add chaos_seed 7L) in
  let n = 10_000 in
  let xs = Array.init n (fun _ -> Prng.Splitmix.float g 1.0) in
  List.iter
    (fun p ->
      let s = Stoch.Sketch.P2.create p in
      Array.iter (Stoch.Sketch.P2.add s) xs;
      let sorted = Array.copy xs in
      Array.sort Float.compare sorted;
      let exact = sorted.(int_of_float (p *. float_of_int (n - 1))) in
      match Stoch.Sketch.P2.quantile s with
      | None -> failf "p2 %g: no estimate after %d samples" p n
      | Some est ->
          if Float.abs (est -. exact) > 0.02 then
            failf "p2 %g: estimate %.4f vs exact %.4f" p est exact)
    [ 0.1; 0.5; 0.9 ]

let test_proportion_ci () =
  let p, lo, hi = Stoch.Sketch.proportion_ci ~count:50 ~total:100 in
  Alcotest.(check (float 1e-12)) "p" 0.5 p;
  Alcotest.(check (float 1e-6)) "low" (0.5 -. (1.96 *. 0.05)) lo;
  Alcotest.(check (float 1e-6)) "high" (0.5 +. (1.96 *. 0.05)) hi;
  Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0)))
    "empty is vacuous" (0.0, 0.0, 1.0)
    (Stoch.Sketch.proportion_ci ~count:0 ~total:0)

(* ------------------------------------------------------------------ *)
(* Monte Carlo vs exhaustive enumeration on a tiny 2-state model       *)
(* ------------------------------------------------------------------ *)

(* A weak toy battery (same constants as the bench's toy instances)
   so a 6-slot on/off load at 2 A actually kills a 2-battery bank on
   most state sequences. *)
let toy_disc =
  Dkibam.Discretization.make ~time_step:1.0 ~charge_unit:1.0
    (Kibam.Params.make ~c:0.166 ~k':0.122 ~capacity:10.0)

let enumeration_slots = 6
let enumeration_deadline = 4.0

(* With p_on = p_off = 1/2 the stationary initial draw and every
   transition are fair coins, so all 2^slots on/off sequences are
   equiprobable: the model's lifetime law is an exact 64-point
   mixture we can enumerate. *)
let enumeration_model =
  Stoch.Onoff.make ~p_on:0.5 ~p_off:0.5 ~currents:[| 2.0 |] ~slot:1.0
    ~slots:enumeration_slots ()

(* Mirror the generator's compilation: one job epoch per on slot,
   off runs merged into single idles. *)
let epochs_of_bits bits =
  let rev = ref [] and idle = ref 0 in
  let flush () =
    if !idle > 0 then begin
      rev := Loads.Epoch.Idle (float_of_int !idle) :: !rev;
      idle := 0
    end
  in
  for i = 0 to enumeration_slots - 1 do
    if bits land (1 lsl i) <> 0 then begin
      flush ();
      rev := Loads.Epoch.Job { current = 2.0; duration = 1.0 } :: !rev
    end
    else incr idle
  done;
  flush ();
  Loads.Epoch.of_epochs (List.rev !rev)

let enumerate () =
  let n_seq = 1 lsl enumeration_slots in
  let values = ref [] and early = ref 0 and deaths = ref 0 in
  for bits = 0 to n_seq - 1 do
    let arrays =
      Loads.Arrays.make ~time_step:1.0 ~charge_unit:1.0 (epochs_of_bits bits)
    in
    let o =
      Sched.Simulator.simulate ~n_batteries:2 ~policy:Sched.Policy.Round_robin
        toy_disc arrays
    in
    let v =
      match o.Sched.Simulator.lifetime_steps with
      | Some s ->
          incr deaths;
          let m = Dkibam.Discretization.minutes_of_steps toy_disc s in
          if m < enumeration_deadline then incr early;
          m
      | None -> float_of_int enumeration_slots (* censored at the horizon *)
    in
    values := v :: !values
  done;
  let n = float_of_int n_seq in
  let mean = List.fold_left ( +. ) 0.0 !values /. n in
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 !values /. n
  in
  ( mean,
    var,
    float_of_int !early /. n,
    float_of_int !deaths /. n )

let test_montecarlo_vs_enumeration () =
  let exact_mean, exact_var, exact_early, exact_deaths = enumerate () in
  if exact_deaths <= 0.5 then
    failf "enumeration setup: only %.0f%%%% of sequences die — weaken the toy \
           battery" (100.0 *. exact_deaths);
  let samples = 4096 in
  let m =
    Sched.Montecarlo.run ~seed:2026L ~samples
      ~deadline_min:enumeration_deadline
      ~policies:[ ("round robin", Sched.Policy.Round_robin) ]
      ~n_batteries:2
      (Sched.Montecarlo.Onoff enumeration_model)
      toy_disc
  in
  let ps = List.hd m.Sched.Montecarlo.mc_policies in
  let nf = float_of_int samples in
  let sigma_mean = sqrt (exact_var /. nf) in
  if Float.abs (ps.ps_mean -. exact_mean) > (3.5 *. sigma_mean) +. 1e-9 then
    failf "MC mean %.4f vs exact %.4f (3.5 sigma = %.4f)" ps.ps_mean exact_mean
      (3.5 *. sigma_mean);
  let check_fraction what est exact =
    let sigma = sqrt (exact *. (1.0 -. exact) /. nf) in
    if Float.abs (est -. exact) > (3.5 *. sigma) +. 1e-9 then
      failf "MC %s %.4f vs exact %.4f (3.5 sigma = %.4f)" what est exact
        (3.5 *. sigma)
  in
  (match ps.ps_death_before with
  | None -> failf "deadline_min given but no death_before summary"
  | Some db ->
      Alcotest.(check (float 1e-12))
        "deadline echoed" enumeration_deadline db.db_deadline_min;
      check_fraction "P(death before deadline)" db.db_fraction exact_early;
      if not (db.db_ci_low <= db.db_fraction && db.db_fraction <= db.db_ci_high)
      then failf "CI does not contain its own point estimate");
  check_fraction "death fraction"
    (float_of_int ps.ps_deaths /. nf)
    exact_deaths

(* ------------------------------------------------------------------ *)
(* Invariance: --jobs, batch/scalar, block size                        *)
(* ------------------------------------------------------------------ *)

let fleet_model = Stoch.Onoff.make ~slots:20 ()

let run_fleet ?pool ?batch ?(block = 64) () =
  Sched.Montecarlo.run ?pool ?batch ~block ~deadline_min:10.0 ~seed:chaos_seed
    ~samples:400
    (Sched.Montecarlo.Onoff fleet_model)
    Dkibam.Discretization.paper_b1

let test_jobs_invariance () =
  let serial = run_fleet () in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          if run_fleet ~pool () <> serial then
            failf "pool of %d domains changed the distributions" domains))
    [ 2; 3 ]

let test_batch_invariance () =
  let batched = run_fleet ~batch:true () in
  if run_fleet ~batch:false () <> batched then
    failf "scalar fallback changed the distributions"

let test_block_invariance () =
  let base = run_fleet () in
  List.iter
    (fun block ->
      if run_fleet ~block () <> base then
        failf "block size %d changed the distributions" block)
    [ 7; 401; 4096 ]

(* ------------------------------------------------------------------ *)
(* Budget trips: well-formed partial estimates                         *)
(* ------------------------------------------------------------------ *)

let test_budget_partial () =
  let budget = Guard.Budget.create ~max_segments:100 () in
  let m =
    Sched.Montecarlo.run ~budget ~block:64 ~deadline_min:10.0 ~seed:1L
      ~samples:1000
      (Sched.Montecarlo.Onoff fleet_model)
      Dkibam.Discretization.paper_b1
  in
  (* one work unit per sample, checked between 64-sample blocks: the
     cap of 100 latches deterministically after the second block *)
  (match m.mc_tripped with
  | Some Guard.Budget.Segments -> ()
  | other ->
      failf "expected a Segments trip, got %s"
        (match other with
        | None -> "no trip"
        | Some t -> Guard.Budget.trip_to_string t));
  Alcotest.(check int) "samples completed" 128 m.mc_samples;
  Alcotest.(check int) "samples requested" 1000 m.mc_samples_requested;
  List.iter
    (fun (ps : Sched.Montecarlo.policy_summary) ->
      Alcotest.(check int)
        ("deaths + survived cover the prefix: " ^ ps.ps_policy)
        m.mc_samples
        (ps.ps_deaths + ps.ps_survived);
      if ps.ps_quantiles = [] then failf "partial estimate lost its quantiles")
    m.mc_policies;
  List.iter
    (fun (d : Sched.Montecarlo.dominance) ->
      Alcotest.(check int)
        ("dominance totals cover the prefix: " ^ d.dom_a ^ "/" ^ d.dom_b)
        m.mc_samples
        (d.dom_a_wins + d.dom_b_wins + d.dom_ties))
    m.mc_dominance

let test_budget_pretripped () =
  let budget = Guard.Budget.create ~max_segments:5 () in
  Guard.Budget.trip budget Guard.Budget.Cancelled;
  let m =
    Sched.Montecarlo.run ~budget ~seed:1L ~samples:50
      (Sched.Montecarlo.Onoff fleet_model)
      Dkibam.Discretization.paper_b1
  in
  Alcotest.(check int) "no samples ran" 0 m.mc_samples;
  (match m.mc_tripped with
  | Some Guard.Budget.Cancelled -> ()
  | _ -> failf "pre-tripped budget not reported");
  List.iter
    (fun (ps : Sched.Montecarlo.policy_summary) ->
      if ps.ps_quantiles <> [] then failf "quantiles out of zero samples")
    m.mc_policies

(* ------------------------------------------------------------------ *)
(* Censoring                                                           *)
(* ------------------------------------------------------------------ *)

let test_censoring () =
  (* a 4-minute trace cannot kill two 5.5 A*min batteries: every lane
     is right-censored at the horizon *)
  let tiny = Stoch.Onoff.make ~slots:4 () in
  let m =
    Sched.Montecarlo.run ~seed:3L ~samples:64
      (Sched.Montecarlo.Onoff tiny)
      Dkibam.Discretization.paper_b1
  in
  List.iter
    (fun (ps : Sched.Montecarlo.policy_summary) ->
      Alcotest.(check int) ("no deaths: " ^ ps.ps_policy) 0 ps.ps_deaths;
      Alcotest.(check int) ("all censored: " ^ ps.ps_policy) 64 ps.ps_survived;
      Alcotest.(check (float 1e-9))
        ("mean is the horizon: " ^ ps.ps_policy)
        4.0 ps.ps_mean)
    m.mc_policies;
  List.iter
    (fun (d : Sched.Montecarlo.dominance) ->
      Alcotest.(check int) "censored pairs tie" 64 d.dom_ties)
    m.mc_dominance

let () =
  Alcotest.run "stoch"
    [
      ( "split",
        [
          Alcotest.test_case "pure and collision-free" `Quick test_split_pure;
          Alcotest.test_case "lane isolation" `Quick test_split_isolation;
        ] );
      ( "generators",
        [
          Alcotest.test_case "onoff deterministic" `Quick
            test_onoff_deterministic;
          Alcotest.test_case "onoff compiles to Spec/Arrays" `Quick
            test_onoff_compiles;
          Alcotest.test_case "env compiles to Spec/Arrays" `Quick
            test_env_compiles;
          Alcotest.test_case "arrays = Arrays.make of the epochs" `Quick
            test_arrays_match_epochs;
          Alcotest.test_case "validation" `Quick test_generator_validation;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "moments" `Quick test_moments;
          Alcotest.test_case "p2 exact below five" `Quick test_p2_small_exact;
          Alcotest.test_case "p2 accuracy at 10k" `Quick test_p2_accuracy;
          Alcotest.test_case "proportion CI" `Quick test_proportion_ci;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "estimates match exhaustive enumeration" `Quick
            test_montecarlo_vs_enumeration;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "batch/scalar invariance" `Quick
            test_batch_invariance;
          Alcotest.test_case "block invariance" `Quick test_block_invariance;
          Alcotest.test_case "budget trip: partial estimate" `Quick
            test_budget_partial;
          Alcotest.test_case "budget trip: pre-tripped" `Quick
            test_budget_pretripped;
          Alcotest.test_case "censoring at the horizon" `Quick test_censoring;
        ] );
    ]
