(* Workload [search]: exact and planned schedules.

   Each pass solves one fixed corpus with the serial exact search —
   the ten Table 5 loads on 2xB1 plus seeded long loads from the four
   regimes of the repo's bound suite — and then drives the
   receding-horizon planner through the scalar simulator over seeded
   40-60-job loads on 3xB1.  Batch, Montecarlo and Serve stay idle.

   The end-to-end exact-search times cover the Table 5 loads alone:
   the seeded long loads are solved and checked in every pass, but how
   long they take depends on the seed far more than on the host (see
   [loads_per_regime]), so their time goes to the per-layer metrics. *)

open Common

let b1 = Dkibam.Discretization.paper_b1
let b2 = Dkibam.Discretization.paper_b2

type load = {
  label : string;
  disc : Dkibam.Discretization.t;
  n : int;
  arrays : Loads.Arrays.t;
}

(* The bound suite's regimes (marginal, overdrive, mixed, overload),
   sized so that one exact search costs milliseconds with a light
   tail: the suite's own 3xB1 marginal entry costs from 0.4 s to over
   a minute depending on the seed, which would make the corpus cost a
   lottery on the seed. *)
let regimes =
  [
    ("marginal", b1, 2, [| 0.25; 0.5 |], 1.0);
    ("overdrive", b2, 2, [| 0.5; 0.75 |], 0.5);
    ("mixed", b1, 2, [| 0.25; 0.5; 1.0 |], 1.0);
    ("overload", b1, 3, [| 0.5; 2.0 |], 1.0);
  ]

(* Four per regime.  One load's search cost is heavy-tailed in its
   seed: over 200 seeds, a marginal load costs 0.9 ms at the median
   and up to 58 ms, an overload load 0.1 ms and up to 12 ms.  Four of
   each summed to 11-48 ms across 30 seeds (quartiles 20 and 31 ms),
   so their time would move [solve_s] with the seed by a third of its
   bound; no corpus a pass can afford averages that out. *)
let loads_per_regime = 4

(* Horizon loads: 3xB1 under 0.5/0.75 A jobs, where the batteries die
   after about ten decisions and the exact optimum used to check the
   planner stays cheap. *)
let horizon_loads = 128
let horizon_currents = [| 0.5; 0.75 |]
let horizon_k = 4
let min_decisions = 1000

(* A seeded long load through the Loads front end: generator, then
   integer encoding.  No Spec round trip: Spec.parse re-merges the
   whole epoch list at every item, and on these loads its allocation
   churn was half the set-up, at 5 ms per pass in some runs and 10 ms
   in others on identical inputs.  The daemon parses every spec frame,
   so [serve] measures it. *)
let seeded_load ~label ~disc ~n ~currents ~idle seed =
  let jobs = 40 + Int64.to_int (Int64.unsigned_rem seed 21L) in
  let epochs =
    Loads.Random_load.intermitted ~seed ~jobs ~currents ~idle_duration:idle ()
  in
  let arrays =
    Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
      ~charge_unit:disc.Dkibam.Discretization.charge_unit epochs
  in
  { label; disc; n; arrays }

let table5_load name =
  {
    label = Loads.Testloads.to_string name;
    disc = b1;
    n = 2;
    arrays =
      Loads.Arrays.make ~time_step:b1.Dkibam.Discretization.time_step
        ~charge_unit:b1.Dkibam.Discretization.charge_unit
        (Loads.Testloads.load name);
  }

(* ILl 250 is answered and checked once per run but not timed: its
   137k-position memo table is the one working set that does not fit a
   share of the host's cache, so slow host phases stretched it by half
   while every other item moved by a tenth, and it alone set the
   corpus time.  ILs 250 (22k positions) remains the deep search. *)
let untimed = [ Loads.Testloads.ILl_250 ]

let table5 () =
  List.map table5_load
    (List.filter (fun n -> not (List.mem n untimed)) Loads.Testloads.all_names)

let n_table5 = List.length Loads.Testloads.all_names - List.length untimed

let build_inputs ~seed =
  let root = Int64.of_int seed in
  let seeded =
    List.concat
      (List.mapi
         (fun r (name, disc, n, currents, idle) ->
           List.init loads_per_regime (fun i ->
               seeded_load
                 ~label:(Printf.sprintf "%s-%d" name i)
                 ~disc ~n ~currents ~idle
                 (Prng.Splitmix.split root ((r * 1000) + i))))
         regimes)
  in
  let horizon =
    Array.init horizon_loads (fun i ->
        seeded_load
          ~label:(Printf.sprintf "horizon-%d" i)
          ~disc:b1 ~n:3 ~currents:horizon_currents ~idle:1.0
          (Prng.Splitmix.split root (10_000 + i)))
  in
  (Array.of_list (table5 () @ seeded), horizon)

(* ---------------------------------------------------------------- *)
(* Reference results                                                *)
(* ---------------------------------------------------------------- *)

(* One line per Table 5 load: label, lifetime steps, stranded units,
   schedule.  Kept with the benchmark so a wrong answer that is the
   same on every pass still fails. *)
let reference_file = "perfbench/reference_table5.txt"

let render (l : load) (r : Sched.Optimal.result) =
  Printf.sprintf "%s|%d|%d|%s" l.label r.Sched.Optimal.lifetime_steps
    r.Sched.Optimal.stranded_units
    (String.concat ","
       (Array.to_list (Array.map string_of_int r.Sched.Optimal.schedule)))

let load_reference () =
  match read_file reference_file with
  | None -> None
  | Some s ->
      Some (List.filter (fun l -> String.trim l <> "") (lines s))

let same_result (a : Sched.Optimal.result) (b : Sched.Optimal.result) =
  a.Sched.Optimal.lifetime_steps = b.Sched.Optimal.lifetime_steps
  && a.Sched.Optimal.stranded_units = b.Sched.Optimal.stranded_units
  && a.Sched.Optimal.schedule = b.Sched.Optimal.schedule
  && a.Sched.Optimal.status = Sched.Optimal.Optimal

(* ---------------------------------------------------------------- *)
(* One pass                                                         *)
(* ---------------------------------------------------------------- *)

type pass = {
  setup_s : float;
  compile_s : float;  (* the Loads share of the set-up *)
  pass_s : float;
  solve_times : float array;  (* per corpus load, seconds *)
  sim_times : float array;  (* per horizon load, seconds *)
  decision_times : float array;  (* per decision, seconds *)
  results : Sched.Optimal.result option array;  (* None: it raised *)
  outcomes : Sched.Simulator.outcome option array;
  gc : gc_delta;
  snap : Obs.snapshot option;  (* counters of the timed phases, when traced *)
  rss_mb : float;  (* VmHWM at the end of the pass *)
}

(* The planner wrapped in a timing shim: the policy closure is the
   Horizon layer's public entry point, so its time per call is the
   decision latency. *)
let timed_horizon times =
  match Sched.Horizon.policy ~k:horizon_k () with
  | Sched.Policy.Custom decide ->
      Sched.Policy.Custom
        (fun ctx ->
          let b, dt = time (fun () -> decide ctx) in
          times := dt :: !times;
          b)
  | _ -> invalid_arg "Sched.Horizon.policy is expected to be a Custom policy"

(* Times [f] on every element of [xs]: results and per-element times.
   Each call is one operation: one that raises is counted as failed,
   has no result and an infinite time, and the pass goes on. *)
let timed_map tally name f xs =
  let times = Array.make (Array.length xs) infinity in
  let results =
    Array.mapi
      (fun i (x : load) ->
        guarded tally
          (Printf.sprintf "search: %s on %s" name x.label)
          (fun () ->
            let r, dt = time (fun () -> span name (fun () -> f x)) in
            times.(i) <- dt;
            r))
      xs
  in
  (results, times)

(* [traced] switches collection on after the set-up, so the snapshot
   holds the timed phases' counters alone. *)
let run_pass ?(traced = false) tally ~seed () =
  let t0 = now () in
  let (corpus, horizon), compile_s = time (fun () -> build_inputs ~seed) in
  (* warm-up: the cheapest corpus entry, so the first timed search does
     not pay for first-touch page faults of the search code *)
  ignore (Sched.Optimal.search ~n_batteries:2 b1 corpus.(1).arrays);
  let t_setup = now () in
  if traced then begin
    Obs.reset ();
    Obs.enable ~trace:true ()
  end;
  let decisions = ref [] in
  let ((results, solve_times), (outcomes, sim_times)), gc =
    gc_measure (fun () ->
        let solved =
          timed_map tally "optimal.search"
            (fun l -> Sched.Optimal.search ~n_batteries:l.n l.disc l.arrays)
            corpus
        in
        let policy = timed_horizon decisions in
        ( solved,
          timed_map tally "horizon.simulate"
            (fun l ->
              Sched.Simulator.simulate ~n_batteries:l.n ~policy l.disc l.arrays)
            horizon ))
  in
  let t_end = now () in
  let snap =
    if traced then begin
      let s = Obs.snapshot () in
      Obs.disable ();
      Some s
    end
    else None
  in
  ( (corpus, horizon),
    {
      setup_s = t_setup -. t0;
      compile_s;
      pass_s = t_end -. t0;
      solve_times;
      sim_times;
      decision_times = Array.of_list (List.rev !decisions);
      results;
      outcomes;
      gc;
      snap;
      rss_mb = peak_rss_mb None;
    } )

(* ---------------------------------------------------------------- *)
(* Checks                                                           *)
(* ---------------------------------------------------------------- *)

(* Compares what both passes answered; a call that raised was counted
   as failed when it raised. *)
let check_pass tally ~first p =
  let both what same a b =
    match (a, b) with
    | Some a, Some b -> check tally what (same a b)
    | _ -> ()
  in
  match first with
  | None -> ()
  | Some f ->
      Array.iteri
        (fun i r ->
          both
            (Printf.sprintf "search: corpus entry %d differs between passes" i)
            same_result r f.results.(i))
        p.results;
      Array.iteri
        (fun i o ->
          both
            (Printf.sprintf "search: horizon load %d differs between passes" i)
            (fun (o : Sched.Simulator.outcome) (o0 : Sched.Simulator.outcome) ->
              o.decisions = o0.decisions
              && o.lifetime_steps = o0.lifetime_steps)
            o f.outcomes.(i))
        p.outcomes

(* Once per run, untimed: the Table 5 answers against the committed
   reference, every exact answer against a solved status, the decision
   count against its floor, and every planned lifetime against the
   exact optimum of its load. *)
(* All ten Table 5 answers in the paper's order: the timed ones from
   the pass, the untimed ones solved here. *)
let table5_answers corpus p =
  let render_opt l = function
    | Some r -> render l r
    | None -> l.label ^ "|raised"
  in
  List.map
    (fun name ->
      let label = Loads.Testloads.to_string name in
      let rec find i =
        if i >= n_table5 then
          let l = table5_load name in
          render_opt l
            (match Sched.Optimal.search ~n_batteries:l.n l.disc l.arrays with
            | r -> Some r
            | exception _ -> None)
        else if corpus.(i).label = label then
          render_opt corpus.(i) p.results.(i)
        else find (i + 1)
      in
      find 0)
    Loads.Testloads.all_names

let verify tally (corpus, horizon) p =
  (match load_reference () with
  | None ->
      check tally ("search: reference file missing: " ^ reference_file) false
  | Some refs ->
      let answers = table5_answers corpus p in
      if List.length refs <> List.length answers then
        check tally "search: reference does not cover the Table 5 loads" false
      else
        List.iter2
          (fun line answer ->
            check tally
              (Printf.sprintf "search: %s differs from the reference" answer)
              (String.equal line answer))
          refs answers);
  Array.iteri
    (fun i r ->
      Option.iter
        (fun (r : Sched.Optimal.result) ->
          check tally
            (Printf.sprintf "search: %s not solved exactly" corpus.(i).label)
            (r.status = Sched.Optimal.Optimal))
        r)
    p.results;
  check tally
    (Printf.sprintf "search: %d decisions, fewer than %d"
       (Array.length p.decision_times) min_decisions)
    (Array.length p.decision_times >= min_decisions);
  Array.iteri
    (fun i (l : load) ->
      Option.iter
        (fun (o : Sched.Simulator.outcome) ->
          ignore
            (guarded tally
               (Printf.sprintf "search: exact optimum of %s" l.label)
               (fun () ->
                 let exact =
                   match
                     Sched.Optimal.search ~n_batteries:l.n l.disc l.arrays
                   with
                   | r -> Some r.Sched.Optimal.lifetime_steps
                   | exception Sched.Optimal.Load_too_short -> None
                 in
                 let ok =
                   match (o.lifetime_steps, exact) with
                   | Some h, Some e -> h <= e
                   | None, Some _ -> false (* outlived the optimum *)
                   | _, None -> true
                 in
                 check tally
                   (Printf.sprintf "search: horizon on %s outlives the optimum"
                      l.label)
                   ok)))
        p.outcomes.(i))
    horizon

(* [--write-reference]: regenerate the committed reference file. *)
let write_reference () =
  let (corpus, _), p = run_pass (tally ()) ~seed:1 () in
  Out_channel.with_open_bin reference_file (fun oc ->
      List.iter
        (fun a -> output_string oc (a ^ "\n"))
        (table5_answers corpus p));
  Printf.printf "wrote %s\n" reference_file

(* ---------------------------------------------------------------- *)
(* Untimed run: the end-to-end metrics                              *)
(* ---------------------------------------------------------------- *)

let end_to_end tally ~seed ~seconds =
  let runs =
    repeat ~seconds
      ~check:(fun ~first (_, p) ->
        check_pass tally ~first:(Option.map snd first) p)
      (fun () -> run_pass tally ~seed ())
  in
  let inputs, first = List.hd runs in
  verify tally inputs first;
  let passes = List.map snd runs in
  let arr f = Array.of_list (List.map f passes) in
  (* Every pass replays identical work, so each item (decision, exact
     answer, planned load) is timed by its fastest repetition, and the
     time per fixed work is the sum of those: a slow host stretch only
     costs the items it overlapped. *)
  let fastest f = fastest_per_item (List.map f passes) in
  let decisions = fastest (fun p -> p.decision_times) in
  (* a load whose call raised in every pass has no time *)
  let exact = fastest (fun p -> p.solve_times) in
  let sims = finite (fastest (fun p -> p.sim_times)) in
  (* the paper's question, per load: how long the exact answer to each
     timed Table 5 load takes (the corpus head, seed-free); the seeded
     long loads after it are only reported here *)
  let table5_times = finite (Array.sub exact 0 n_table5) in
  let seeded_times =
    finite (Array.sub exact n_table5 (Array.length exact - n_table5))
  in
  let answers = Array.append table5_times sims in
  Printf.printf
    "search: %d passes; corpus %d Table 5 + %d seeded loads (seeded: \
     %.3f ms), %d horizon loads, %d decisions\n"
    (List.length passes) (Array.length table5_times)
    (Array.length seeded_times) (1e3 *. sum seeded_times)
    (Array.length sims) (Array.length decisions);
  [
    metric "setup_s" "s" (minimum (arr (fun p -> p.setup_s)));
    metric "peak_rss_mb" "MiB" first.rss_mb;
    metric "solve_s" "s" (sum table5_times);
    metric "decision_us_p50" "us" (1e6 *. quantile decisions 0.5);
    metric "decision_us_p99" "us" (1e6 *. quantile decisions 0.99);
    metric "traces_per_s" "1/s" (float_of_int (Array.length sims) /. sum sims);
    metric "throughput_per_s" "1/s"
      (float_of_int (Array.length answers) /. sum answers);
    metric "latency_p50_ms" "ms" (1e3 *. quantile table5_times 0.5);
    metric "latency_p99_ms" "ms" (1e3 *. quantile table5_times 0.99);
  ]

(* ---------------------------------------------------------------- *)
(* Traced run: the layer split of one pass                          *)
(* ---------------------------------------------------------------- *)

let stats_sum results f =
  Array.fold_left
    (fun a r ->
      match r with Some r -> a + f r.Sched.Optimal.stats | None -> a)
    0 results

let per_layer tally ~seed ~seconds =
  (* untraced and traced passes alternate, so the overhead compares
     like with like *)
  let runs =
    repeat ~seconds
      ~check:(fun ~first ((_, u), (_, t)) ->
        let first = Option.map (fun ((_, f), _) -> f) first in
        check_pass tally ~first u;
        check_pass tally ~first:(Some (Option.value first ~default:u)) t)
      (fun () ->
        let u = run_pass tally ~seed () in
        settle ();
        (u, run_pass ~traced:true tally ~seed ()))
  in
  let (corpus, horizon), first = fst (List.hd runs) in
  let untraced = List.map (fun ((_, u), _) -> u.pass_s) runs in
  let traced = List.map (fun (_, (_, t)) -> t) runs in
  verify tally (corpus, horizon) first;
  (* The bound layer's A/B: the same corpus with bounds off, each load
     timed right next to its bounds-on twin; the answers must be
     identical. *)
  settle ();
  let on_s = ref 0.0 and off_s = ref 0.0 and seg_off = ref 0 in
  Array.iteri
    (fun i l ->
      ignore
        (guarded tally
           (Printf.sprintf "search: %s with bounds off" l.label)
           (fun () ->
             let _, t_on =
               time (fun () ->
                   Sched.Optimal.search ~n_batteries:l.n l.disc l.arrays)
             in
             let off, t_off =
               time (fun () ->
                   span "optimal.search.bounds_off" (fun () ->
                       Sched.Optimal.search ~bounds:false ~n_batteries:l.n
                         l.disc l.arrays))
             in
             on_s := !on_s +. t_on;
             off_s := !off_s +. t_off;
             seg_off := !seg_off + off.Sched.Optimal.stats.segments_run;
             check tally
               (Printf.sprintf "search: %s differs with bounds off" l.label)
               (Option.fold ~none:false ~some:(same_result off)
                  first.results.(i)))))
    corpus;
  let sorted_t =
    List.sort (fun a b -> Float.compare a.pass_s b.pass_s) traced
  in
  let p = List.nth sorted_t (List.length sorted_t / 2) in
  let snap = Option.get p.snap in
  let ms x = 1e3 *. x in
  let search_s = sum (finite p.solve_times) in
  let decide_s = sum p.decision_times in
  let sim_s = sum (finite p.sim_times) in
  let segments = stats_sum p.results (fun s -> s.segments_run) in
  let overhead =
    100.0
    *. ((minimum (Array.of_list (List.map (fun p -> p.pass_s) traced))
        /. minimum (Array.of_list untraced))
       -. 1.0)
  in
  let l =
    ledger ~pass_ms:(ms p.pass_s)
      [
        ("loads.compile", ms p.compile_s);
        ("setup warm-up", ms (p.setup_s -. p.compile_s));
        ("optimal.search", ms search_s);
        ("horizon.decide", ms decide_s);
        ("horizon.sim", ms (sim_s -. decide_s));
      ]
  in
  print_ledger "search" l;
  per_layer_result l ~overhead
    [
      ("loads.compile_ms", ms p.compile_s);
      ("optimal.search_ms", ms search_s);
      ("optimal.segments_per_ms", float_of_int segments /. ms search_s);
      ("optimal.segments", float_of_int segments);
      ( "optimal.positions",
        float_of_int (stats_sum p.results (fun s -> s.positions_explored)) );
      ( "optimal.memo_hits",
        float_of_int (stats_sum p.results (fun s -> s.pruned)) );
      ( "bound.cuts",
        float_of_int (stats_sum p.results (fun s -> s.bound_cuts)) );
      ("bound.segment_ratio", float_of_int !seg_off /. float_of_int segments);
      ("bound.net_ms", ms (!on_s -. !off_s));
      ("horizon.decide_ms", ms decide_s);
      ("horizon.decisions", float_of_int (Array.length p.decision_times));
      ("horizon.plans", float_of_int (Obs.counter_value snap "horizon.plans"));
      ( "horizon.replans",
        float_of_int (Obs.counter_value snap "horizon.replans") );
      ("horizon.sim_ms", ms (sim_s -. decide_s));
      ("gc.minor_mwords", p.gc.minor_words /. 1e6);
      ("gc.major_collections", float_of_int p.gc.major_collections);
    ]
