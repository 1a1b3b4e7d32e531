(* The receding-horizon planner harness (Sched.Horizon).

   The load-bearing checks are two differentials.  With the window
   covering the whole load (k >= job count) the planner's truncated
   search has nothing to truncate, so the policy must reproduce the
   exact optimal search bit-for-bit — lifetime AND per-decision
   schedule — on every tractable Table 5 load.  And on seeded random
   loads every plan must agree with an independent oracle: a plain
   recursion over the window, with no memo, no span cache and no
   bounds, that scores the frontier with [Bound.lifetime_lb].  Around
   them, the
   properties the planner advertises: the root plan value is admissible
   (never above the true optimum) and realized (the simulated lifetime
   under the policy reaches it); on a fixed family of random loads
   lifetimes never beat the optimum, long windows dominate the greedy
   one — but are NOT pointwise monotone in k, and the counterexample is
   pinned so the docs stay honest; a
   budget-tripped decision falls back to a stateless heuristic, so
   tripped runs are reproducible bit-for-bit and an always-tripping
   run IS the fallback policy's run; every emitted schedule replays
   through [Policy.Fixed] to the same outcome; the ensemble hook
   ([?extra_policies]) is bit-identical serial vs pooled; and the
   [horizon.*] observability counters account for every decision.

   The oracle differential is seeded from CHAOS_SEED when set, so a CI
   failure reproduces locally with [CHAOS_SEED=... dune runtest]; the
   seed is printed either way. *)

let disc_b1 = Dkibam.Discretization.paper_b1
let disc_b2 = Dkibam.Discretization.paper_b2
let enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load
let arrays name = enc (Loads.Testloads.load name)
let check_int = Alcotest.(check int)

(* Same restriction as test_bound.ml: B2's five-fold capacity makes six
   of the ten searches multi-minute trees, so B2 keeps the four loads
   whose trees stay small and B1 runs complete. *)
let table5_loads = function
  | "B2" ->
      [
        Loads.Testloads.CL_500; Loads.Testloads.CL_alt;
        Loads.Testloads.ILs_500; Loads.Testloads.ILl_500;
      ]
  | _ -> Loads.Testloads.all_names

let simulate ~policy disc a =
  Sched.Simulator.simulate ~n_batteries:2 ~policy disc a

let decisions_of (o : Sched.Simulator.outcome) = List.map snd o.decisions

let lifetime_exn what (o : Sched.Simulator.outcome) =
  match o.lifetime_steps with
  | Some s -> s
  | None -> Alcotest.failf "%s: batteries outlived the load" what

(* ------------------------------------------------------------------ *)
(* Differential: full window = exact search                            *)
(* ------------------------------------------------------------------ *)

let test_full_window_matches_exact () =
  List.iter
    (fun (disc_name, disc) ->
      List.iter
        (fun name ->
          let a = arrays name in
          let jobs = Loads.Cursor.job_count (Loads.Cursor.make a) in
          let exact = Sched.Optimal.search ~n_batteries:2 disc a in
          let what =
            Printf.sprintf "%s (%s)" (Loads.Testloads.to_string name) disc_name
          in
          let o = simulate ~policy:(Sched.Horizon.policy ~k:jobs ()) disc a in
          check_int (what ^ ": lifetime") exact.lifetime_steps
            (lifetime_exn what o);
          Alcotest.(check (list int))
            (what ^ ": schedule")
            (Array.to_list exact.schedule)
            (decisions_of o))
        (table5_loads disc_name))
    [ ("B1", disc_b1); ("B2", disc_b2) ]

(* The oracle: the window search written as a plain recursion, sharing
   no code with [Optimal]'s core — no memo, no span cache, no bounds, no
   budget.  From a decision point it serves each alive battery in id
   order and takes the first maximum.  A death mid-epoch hands over
   after the one-step switch delay (or at the next job, when the epoch
   ends first); idle epochs are recovery; a position at or past the
   frontier scores [Bound.lifetime_lb], a death its step, and outliving
   the load [Bound.infinite]. *)
let switch_delay = 1

let rec oracle_value bd cursor ~frontier ~y ~local bank =
  let best = ref min_int and choice = ref (-1) in
  for b = 0 to Sched.Bank.size bank - 1 do
    if not (Sched.Bank.is_dead bank b) then begin
      let v = oracle_child bd cursor ~frontier ~y ~local bank b in
      if v > !best then begin
        best := v;
        choice := b
      end
    end
  done;
  (!choice, !best)

and oracle_child bd cursor ~frontier ~y ~local bank b =
  let bank = Sched.Bank.copy bank in
  let len = Loads.Cursor.epoch_len cursor y in
  match
    Sched.Bank.serve bank ~b (Loads.Cursor.schedule_from cursor y ~local)
  with
  | Sched.Bank.Completed -> oracle_next bd cursor ~frontier (y + 1) bank
  | Sched.Bank.Died off ->
      let next = local + off in
      if Sched.Bank.all_dead bank then Loads.Cursor.epoch_start cursor y + next
      else if next + switch_delay < len then begin
        Sched.Bank.tick_all bank switch_delay;
        oracle_at bd cursor ~frontier ~y ~local:(next + switch_delay) bank
      end
      else begin
        Sched.Bank.tick_all bank (len - next);
        oracle_next bd cursor ~frontier (y + 1) bank
      end

and oracle_next bd cursor ~frontier y bank =
  if y >= Loads.Cursor.epoch_count cursor then Sched.Bound.infinite
  else if Loads.Cursor.is_idle cursor y then begin
    Sched.Bank.tick_all bank (Loads.Cursor.epoch_len cursor y);
    oracle_next bd cursor ~frontier (y + 1) bank
  end
  else oracle_at bd cursor ~frontier ~y ~local:0 bank

and oracle_at bd cursor ~frontier ~y ~local bank =
  if y >= frontier then Sched.Bound.lifetime_lb bd ~y ~local bank
  else snd (oracle_value bd cursor ~frontier ~y ~local bank)

(* A k-job receding-horizon policy that decides with the oracle and,
   at every decision, also asks [Optimal.plan] of one planner per run
   (so its memo and the domain's span cache carry over between
   decisions, as they do in [Horizon]), failing on any disagreement in
   the choice or the certified value.  [mid] counts mid-job replans. *)
let oracle_policy ~what ~k ~mid =
  let per_run = ref None in
  Sched.Policy.Custom
    (fun (ctx : Sched.Policy.decision_context) ->
      let cursor = Option.get ctx.cursor in
      let bd, planner, job_epochs =
        match !per_run with
        | Some (c, bd, p, j) when c == cursor -> (bd, p, j)
        | _ ->
            let bd = Sched.Bound.create ctx.disc cursor in
            let p = Sched.Optimal.planner ctx.disc cursor in
            let j =
              List.filter
                (fun y -> not (Loads.Cursor.is_idle cursor y))
                (List.init (Loads.Cursor.epoch_count cursor) Fun.id)
            in
            per_run := Some (cursor, bd, p, j);
            (bd, p, j)
      in
      let frontier =
        match List.nth_opt job_epochs (ctx.job_index + k) with
        | Some y -> y
        | None -> Loads.Cursor.epoch_count cursor
      in
      let delay = if ctx.mid_job then switch_delay else 0 in
      if ctx.mid_job then incr mid;
      let bank =
        Sched.Bank.of_parts ctx.disc ~batteries:ctx.batteries
          ~dead:
            (Array.init (Array.length ctx.batteries) (fun i ->
                 not (List.mem i ctx.alive)))
      in
      Sched.Bank.tick_all bank delay;
      let y = ctx.epoch_index in
      let local = ctx.step - Loads.Cursor.epoch_start cursor y + delay in
      let choice, value = oracle_value bd cursor ~frontier ~y ~local bank in
      (match
         Sched.Optimal.plan planner ~frontier_epoch:frontier ~y ~local bank
       with
      | None -> Alcotest.failf "%s: unbudgeted plan returned None" what
      | Some p ->
          if p.plan_choice <> choice || p.plan_value <> value then
            Alcotest.failf
              "%s, job %d (step %d%s): plan chose %d (value %d), oracle %d \
               (value %d)"
              what ctx.job_index ctx.step
              (if ctx.mid_job then ", mid-job" else "")
              p.plan_choice p.plan_value choice value);
      choice)

let chaos_seed = Guard.Chaos.seed_from_env ~default:20260819L ()

(* Seeded random loads on 3xB1 and 4xB2, k = 2 and 4: every plan equals
   the oracle's, and the Horizon policy's run equals the oracle
   policy's, decision for decision.  The loads are long enough that
   every bank dies within them, so the runs include mid-job
   replans. *)
let test_oracle_random_loads () =
  let g = Prng.Splitmix.create chaos_seed in
  let mid = ref 0 in
  List.iter
    (fun (disc_name, disc, n, jobs, currents) ->
      for i = 1 to 8 do
        let seed = Prng.Splitmix.next_int64 g in
        let jobs = jobs + Prng.Splitmix.int g 11 in
        let a = enc (Loads.Random_load.intermitted ~seed ~jobs ~currents ()) in
        List.iter
          (fun k ->
            let what =
              Printf.sprintf
                "%dx%s load %d (seed %Ld, %d jobs, CHAOS_SEED %Ld) k=%d" n
                disc_name i seed jobs chaos_seed k
            in
            let run policy =
              Sched.Simulator.simulate ~n_batteries:n ~policy disc a
            in
            let oracle = run (oracle_policy ~what ~k ~mid) in
            let horizon = run (Sched.Horizon.policy ~k ()) in
            ignore (lifetime_exn what oracle : int);
            Alcotest.(check (option int))
              (what ^ ": lifetime") oracle.lifetime_steps
              horizon.lifetime_steps;
            Alcotest.(check (list int))
              (what ^ ": decisions") (decisions_of oracle)
              (decisions_of horizon))
          [ 2; 4 ]
      done)
    [
      ("B1", disc_b1, 3, 40, [| 0.5; 0.75 |]);
      ("B2", disc_b2, 4, 60, [| 0.75; 1.0 |]);
    ];
  if !mid = 0 then Alcotest.fail "no mid-job replan in the oracle runs"

(* A frontier past the load's end makes [Optimal.plan] the exact suffix
   search itself: the root value is the optimal lifetime and the root
   choice is the optimal schedule's first decision (same first-maximum
   tie-break). *)
let test_plan_full_suffix_is_exact () =
  List.iter
    (fun name ->
      let a = arrays name in
      let cursor = Loads.Cursor.make a in
      let epoch_count = Loads.Cursor.epoch_count cursor in
      let y0 =
        let rec find y =
          if not (Loads.Cursor.is_idle cursor y) then y else find (y + 1)
        in
        find 0
      in
      let exact = Sched.Optimal.search ~n_batteries:2 disc_b1 a in
      let planner = Sched.Optimal.planner disc_b1 cursor in
      let bank = Sched.Bank.create ~n_batteries:2 disc_b1 in
      let what = Loads.Testloads.to_string name in
      match
        Sched.Optimal.plan planner ~frontier_epoch:epoch_count ~y:y0 ~local:0
          bank
      with
      | None -> Alcotest.failf "%s: unbudgeted plan returned None" what
      | Some p ->
          check_int (what ^ ": root value") exact.lifetime_steps
            p.Sched.Optimal.plan_value;
          check_int (what ^ ": root choice") exact.schedule.(0)
            p.Sched.Optimal.plan_choice)
    (table5_loads "B1")

(* ------------------------------------------------------------------ *)
(* Plan values: admissible and realized                                *)
(* ------------------------------------------------------------------ *)

(* The root certificate of the FIRST decision: never above the true
   optimum (the terminal bound is admissible), and never above what the
   receding-horizon run then actually achieves (committed choices are
   well-founded).  On ILs r1, where best-of falls furthest short, six
   jobs of lookahead reach the optimum (20.52 min). *)
let test_certificate_admissible_and_realized () =
  List.iter
    (fun (name, ks) ->
      let a = arrays name in
      let cursor = Loads.Cursor.make a in
      let epoch_count = Loads.Cursor.epoch_count cursor in
      let job_epochs =
        List.filter
          (fun y -> not (Loads.Cursor.is_idle cursor y))
          (List.init epoch_count Fun.id)
      in
      let y0 = List.hd job_epochs in
      let exact = Sched.Optimal.search ~n_batteries:2 disc_b1 a in
      List.iter
        (fun k ->
          let frontier_epoch =
            match List.nth_opt job_epochs k with
            | Some y -> y
            | None -> epoch_count
          in
          let planner = Sched.Optimal.planner disc_b1 cursor in
          let bank = Sched.Bank.create ~n_batteries:2 disc_b1 in
          let what =
            Printf.sprintf "%s (k=%d)" (Loads.Testloads.to_string name) k
          in
          let plan =
            Sched.Optimal.plan planner ~frontier_epoch ~y:y0 ~local:0 bank
          in
          Answers.check_plan
            (Printf.sprintf "plan %s k=%d"
               (Loads.Testloads.to_string name)
               k)
            plan;
          match plan with
          | None -> Alcotest.failf "%s: unbudgeted plan returned None" what
          | Some p ->
              if p.plan_value > exact.lifetime_steps then
                Alcotest.failf "%s: certificate %d above optimum %d" what
                  p.plan_value exact.lifetime_steps;
              let policy = Sched.Horizon.policy ~k () in
              let o = simulate ~policy disc_b1 a in
              let realized = lifetime_exn what o in
              if realized < p.plan_value then
                Alcotest.failf "%s: realized %d below certificate %d" what
                  realized p.plan_value;
              if k >= 6 then begin
                check_int
                  (what ^ ": reaches the optimum")
                  exact.lifetime_steps realized;
                Answers.check_run
                  (Printf.sprintf "horizon %s k=%d"
                     (Loads.Testloads.to_string name)
                     k)
                  ~lifetime:realized (decisions_of o)
              end)
        ks)
    [
      (Loads.Testloads.CL_500, [ 1; 2; 4 ]);
      (Loads.Testloads.ILs_alt, [ 1; 2; 4 ]);
      (Loads.Testloads.ILl_250, [ 1; 2; 4 ]);
      (Loads.Testloads.ILs_r1, [ 6 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Table 5: short windows stay below the optimum                       *)
(* ------------------------------------------------------------------ *)

(* Every receding-horizon run is one schedule of the space the exact
   search maximizes over, so on all ten Table 5 loads and on the four
   regimes of the bound suite no window may beat the optimum.  On Table
   5, k = 4 stays within 2% of it (0.58% at worst when this was
   written), and on ILs alt six jobs of lookahead come within 0.05 min
   (5 steps) of it. *)
let test_table5_never_beats_optimum () =
  let optimum ~n_batteries disc a =
    (Sched.Optimal.search ~n_batteries disc a).lifetime_steps
  in
  (* the horizon-k lifetime, failing if it beats [opt] *)
  let horizon what ~n_batteries disc a ~opt k =
    let what = Printf.sprintf "%s (k=%d)" what k in
    let policy = Sched.Horizon.policy ~k () in
    let s =
      lifetime_exn what (Sched.Simulator.simulate ~n_batteries ~policy disc a)
    in
    if s > opt then Alcotest.failf "%s: horizon %d beats optimum %d" what s opt;
    s
  in
  List.iter
    (fun name ->
      let what = Loads.Testloads.to_string name and a = arrays name in
      let opt = optimum ~n_batteries:2 disc_b1 a in
      List.iter
        (fun k ->
          let s = horizon what ~n_batteries:2 disc_b1 a ~opt k in
          if k = 4 && 50 * (opt - s) > opt then
            Alcotest.failf "%s: horizon-4 %d more than 2%% below %d" what s
              opt;
          if k = 6 && opt - s > 5 then
            Alcotest.failf "%s: horizon-6 %d more than 5 steps below %d" what
              s opt)
        (if name = Loads.Testloads.ILs_alt then [ 1; 2; 4; 6 ] else [ 1; 2; 4 ]))
    (table5_loads "B1");
  List.iter
    (fun (label, disc, n_batteries, a) ->
      let opt = optimum ~n_batteries disc a in
      List.iter
        (fun k -> ignore (horizon label ~n_batteries disc a ~opt k : int))
        [ 1; 2; 3; 4; 6; 8 ])
    Answers.regimes

(* ------------------------------------------------------------------ *)
(* Monotone improvement in k on random loads                           *)
(* ------------------------------------------------------------------ *)

(* A fixed, documented family (pinned seeds, not CHAOS_SEED: two of the
   claims are empirical regularities, not theorems).  What holds, per
   seed: no window ever beats the optimum and the full window equals it
   — those are theorems — and a long window dominates the greedy one,
   with k = 8 already exact on every seed of this family.  What does
   NOT hold, and is asserted as a permanent counterexample so nobody
   "fixes" the docs back to the myth: pointwise monotonicity in k.
   Seed 202 plans WORSE with k = 2 (1896 steps) than with k = 1 (2460):
   the two-job window steers into a state whose pooled-recovery
   frontier value overestimates the real continuation relative to the
   greedy choice's.  doc/PLANNING.md tells this story; the bench
   measures the gap profile. *)
let test_window_size_properties () =
  let jobs = 24 in
  let ks = [ 1; 2; 4; 8; jobs ] in
  let all =
    List.map
      (fun seed ->
        let a = enc (Loads.Random_load.intermitted ~seed ~jobs ()) in
        let exact = Sched.Optimal.search ~n_batteries:2 disc_b1 a in
        let lifetimes =
          List.map
            (fun k ->
              let what = Printf.sprintf "seed %Ld k=%d" seed k in
              let policy = Sched.Horizon.policy ~k () in
              let o = simulate ~policy disc_b1 a in
              let s = lifetime_exn what o in
              Answers.check_run
                (Printf.sprintf "horizon seed=%Ld jobs=%d k=%d" seed jobs k)
                ~lifetime:s (decisions_of o);
              if s > exact.lifetime_steps then
                Alcotest.failf "%s: horizon %d beats optimum %d" what s
                  exact.lifetime_steps;
              (k, s))
            ks
        in
        check_int
          (Printf.sprintf "seed %Ld: k = job count is optimal" seed)
          exact.lifetime_steps
          (List.assoc jobs lifetimes);
        check_int
          (Printf.sprintf "seed %Ld: k = 8 is optimal on this family" seed)
          exact.lifetime_steps (List.assoc 8 lifetimes);
        if List.assoc 8 lifetimes < List.assoc 1 lifetimes then
          Alcotest.failf "seed %Ld: k=8 below k=1" seed;
        (seed, lifetimes))
      [ 101L; 202L; 303L; 404L ]
  in
  (* The counterexample, pinned: receding-horizon lifetimes are NOT
     monotone in k.  If this ever starts passing monotonically the
     planner changed and doc/PLANNING.md's discussion needs a new
     example. *)
  let l202 = List.assoc 202L all in
  if List.assoc 2 l202 >= List.assoc 1 l202 then
    Alcotest.failf
      "seed 202 no longer dips at k=2 (k1=%d, k2=%d): update the \
       non-monotonicity discussion in doc/PLANNING.md"
      (List.assoc 1 l202) (List.assoc 2 l202)

(* ------------------------------------------------------------------ *)
(* Budget trips and fallbacks                                          *)
(* ------------------------------------------------------------------ *)

(* A one-segment budget trips every plan that faces a real choice, so
   the run degenerates to the fallback heuristic — and with the best-of
   fallback that is EXACTLY a [Policy.Best_of] run (when one battery is
   left, plan and best-of agree trivially). *)
let test_budget_one_is_best_of () =
  List.iter
    (fun name ->
      let a = arrays name in
      let what = Loads.Testloads.to_string name in
      let policy =
        Sched.Horizon.policy ~budget_segments:1
          ~fallback:Sched.Horizon.Best_of ~k:6 ()
      in
      let tripped = simulate ~policy disc_b1 a in
      let best_of = simulate ~policy:Sched.Policy.Best_of disc_b1 a in
      Alcotest.(check (option int))
        (what ^ ": lifetime") best_of.lifetime_steps tripped.lifetime_steps;
      Alcotest.(check (list int))
        (what ^ ": decisions") (decisions_of best_of) (decisions_of tripped))
    [
      Loads.Testloads.CL_500;
      Loads.Testloads.ILs_alt;
      Loads.Testloads.ILl_250;
    ]

(* Tripped runs are deterministic: the segment-count budget is charged
   at the same points every run (fresh budget and per-run planner), so
   repeating a budgeted run — with either fallback — reproduces the
   decision sequence bit-for-bit. *)
let test_budget_trips_deterministic () =
  let a = arrays Loads.Testloads.ILs_alt in
  List.iter
    (fun fb ->
      let policy () =
        Sched.Horizon.policy ~budget_segments:40 ~fallback:fb ~k:8 ()
      in
      let o1 = simulate ~policy:(policy ()) disc_b1 a in
      let o2 = simulate ~policy:(policy ()) disc_b1 a in
      Alcotest.(check (option int))
        "lifetime repeats" o1.lifetime_steps o2.lifetime_steps;
      Alcotest.(check (list int))
        "decisions repeat" (decisions_of o1) (decisions_of o2))
    [ Sched.Horizon.Best_of; Sched.Horizon.Round_robin ]

(* An ample budget never trips: bit-identical to the unbudgeted run. *)
let test_ample_budget_is_unbudgeted () =
  let a = arrays Loads.Testloads.ILs_alt in
  let unbudgeted =
    simulate ~policy:(Sched.Horizon.policy ~k:4 ()) disc_b1 a
  in
  let budgeted =
    simulate
      ~policy:(Sched.Horizon.policy ~budget_segments:10_000_000 ~k:4 ())
      disc_b1 a
  in
  Alcotest.(check (option int))
    "lifetime" unbudgeted.lifetime_steps budgeted.lifetime_steps;
  Alcotest.(check (list int))
    "decisions" (decisions_of unbudgeted) (decisions_of budgeted)

(* ------------------------------------------------------------------ *)
(* Replay, driver contract, naming                                     *)
(* ------------------------------------------------------------------ *)

(* Every schedule the policy emits is an ordinary decision sequence:
   replaying it with [Policy.Fixed] reproduces the outcome. *)
let test_replay_through_fixed () =
  List.iter
    (fun (disc_name, disc, name) ->
      List.iter
        (fun k ->
          let a = arrays name in
          let what =
            Printf.sprintf "%s (%s, k=%d)"
              (Loads.Testloads.to_string name)
              disc_name k
          in
          let o = simulate ~policy:(Sched.Horizon.policy ~k ()) disc a in
          let fixed = Array.of_list (decisions_of o) in
          let replay = simulate ~policy:(Sched.Policy.Fixed fixed) disc a in
          Alcotest.(check (option int))
            (what ^ ": lifetime") o.lifetime_steps replay.lifetime_steps;
          Alcotest.(check (list int))
            (what ^ ": decisions") (decisions_of o) (decisions_of replay))
        [ 2; 5 ])
    [
      ("B1", disc_b1, Loads.Testloads.CL_500);
      ("B1", disc_b1, Loads.Testloads.ILs_alt);
      ("B2", disc_b2, Loads.Testloads.CL_alt);
    ]

let test_no_cursor_driver_rejected () =
  let fresh = Dkibam.Battery.full disc_b1 in
  let ctx =
    {
      Sched.Policy.disc = disc_b1;
      job_index = 0;
      epoch_index = 0;
      step = 0;
      mid_job = false;
      batteries = [| fresh; fresh |];
      alive = [ 0; 1 ];
      cursor = None;
    }
  in
  Alcotest.check_raises "cursorless driver"
    (Invalid_argument
       "Sched.Horizon: this driver provides no load cursor to plan over")
    (fun () ->
      ignore
        (Sched.Policy.decide
           (Sched.Horizon.policy ~k:1 ())
           ~state:(ref 0) ctx))

let test_parameter_validation () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Sched.Horizon.policy: k must be >= 1") (fun () ->
      ignore (Sched.Horizon.policy ~k:0 ()));
  Alcotest.check_raises "budget 0"
    (Invalid_argument "Sched.Horizon.policy: budget_segments must be >= 1")
    (fun () -> ignore (Sched.Horizon.policy ~budget_segments:0 ~k:1 ()))

let test_names () =
  Alcotest.(check string) "plain" "horizon-3" (Sched.Horizon.name ~k:3 ());
  Alcotest.(check string) "budgeted" "horizon-3(budget 500)"
    (Sched.Horizon.name ~budget_segments:500 ~k:3 ())

(* ------------------------------------------------------------------ *)
(* Ensemble hook                                                       *)
(* ------------------------------------------------------------------ *)

let test_ensemble_extra_policies () =
  let extra k =
    [ (Sched.Horizon.name ~k (), Sched.Horizon.policy ~k ()) ]
  in
  let run ?pool () =
    Sched.Ensemble.run ?pool ~n_loads:6 ~jobs_per_load:16
      ~include_optimal:false ~extra_policies:(extra 3) disc_b1 ()
  in
  let serial = run () in
  let pooled = Exec.Pool.with_pool ~domains:2 (fun pool -> run ~pool ()) in
  if serial <> pooled then
    Alcotest.fail "ensemble with a horizon lane differs serial vs pooled";
  if not (List.mem_assoc "horizon-3" serial.per_policy) then
    Alcotest.fail "horizon-3 lane missing from per_policy";
  Alcotest.check_raises "name collision"
    (Invalid_argument
       "Sched.Ensemble.run: extra policy name \"optimal\" is taken")
    (fun () ->
      ignore
        (Sched.Ensemble.run ~n_loads:1
           ~extra_policies:[ ("optimal", Sched.Policy.Best_of) ]
           disc_b1 ()))

(* ------------------------------------------------------------------ *)
(* Observability counters                                              *)
(* ------------------------------------------------------------------ *)

let test_obs_counters () =
  let a = arrays Loads.Testloads.ILs_alt in
  Obs.enable ();
  let before = Obs.snapshot () in
  let o = simulate ~policy:(Sched.Horizon.policy ~k:6 ()) disc_b1 a in
  let mid = Obs.snapshot () in
  let tripped =
    simulate
      ~policy:(Sched.Horizon.policy ~budget_segments:1 ~k:3 ())
      disc_b1 a
  in
  let after = Obs.snapshot () in
  Obs.disable ();
  Obs.reset ();
  let delta snap snap' name =
    Obs.counter_value snap' name - Obs.counter_value snap name
  in
  check_int "plans = decisions"
    (List.length o.decisions)
    (delta before mid "horizon.plans");
  let replans = delta before mid "horizon.replans" in
  if replans < 0 || replans > delta before mid "horizon.plans" then
    Alcotest.failf "replans %d outside [0, plans]" replans;
  check_int "no trips without a budget" 0
    (delta before mid "horizon.budget_trips");
  (* each plan's work: every counter moves, and every segment's span is
     either a cache hit or a miss *)
  List.iter
    (fun name ->
      if delta before mid name <= 0 then
        Alcotest.failf "%s did not move over %d plans" name
          (delta before mid "horizon.plans"))
    [
      "horizon.segments"; "horizon.positions"; "horizon.memo_hits";
      "horizon.span_hits"; "horizon.span_misses";
    ];
  check_int "span hits + misses = segments"
    (delta before mid "horizon.segments")
    (delta before mid "horizon.span_hits" + delta before mid "horizon.span_misses");
  check_int "plans leave optimal.* alone" 0
    (delta before mid "optimal.segments");
  check_int "tripped plans counted"
    (List.length tripped.decisions)
    (delta mid after "horizon.plans");
  if delta mid after "horizon.budget_trips" = 0 then
    Alcotest.fail "a one-segment budget never tripped"

let () =
  Printf.printf "test_horizon: CHAOS_SEED=%Ld\n%!" chaos_seed;
  Alcotest.run "horizon"
    [
      ( "differential",
        [
          Alcotest.test_case "full window = exact search" `Slow
            test_full_window_matches_exact;
          Alcotest.test_case "full-suffix plan = exact root" `Quick
            test_plan_full_suffix_is_exact;
          Alcotest.test_case "random loads, plans = oracle" `Quick
            test_oracle_random_loads;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "admissible and realized" `Quick
            test_certificate_admissible_and_realized;
        ] );
      ( "table 5",
        [
          Alcotest.test_case "never beats the optimum" `Quick
            test_table5_never_beats_optimum;
        ] );
      ( "monotonicity",
        [
          Alcotest.test_case "window-size properties" `Slow
            test_window_size_properties;
        ] );
      ( "budget",
        [
          Alcotest.test_case "budget 1 = best-of run" `Quick
            test_budget_one_is_best_of;
          Alcotest.test_case "tripped runs deterministic" `Quick
            test_budget_trips_deterministic;
          Alcotest.test_case "ample budget = unbudgeted" `Quick
            test_ample_budget_is_unbudgeted;
        ] );
      ( "contract",
        [
          Alcotest.test_case "replay through Fixed" `Quick
            test_replay_through_fixed;
          Alcotest.test_case "cursorless driver rejected" `Quick
            test_no_cursor_driver_rejected;
          Alcotest.test_case "parameter validation" `Quick
            test_parameter_validation;
          Alcotest.test_case "names" `Quick test_names;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "extra policy lane, serial = pooled" `Quick
            test_ensemble_extra_policies;
        ] );
      ( "observability",
        [
          Alcotest.test_case "horizon.* counters" `Quick test_obs_counters;
        ] );
    ]
