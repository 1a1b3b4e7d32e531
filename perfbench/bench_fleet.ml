(* Workload [fleet]: stochastic fleet lifetimes.

   Each pass runs one Monte Carlo estimation on the run's seed: the
   Markov on/off device model, the three default batchable policies
   (sequential, round robin, best-of) on every sampled trace, 2xB1, no
   pool.  The time goes to Stoch sampling, Loads compilation and the
   batch engine lanes; Optimal, Horizon and Serve stay idle. *)

open Common

let disc = Dkibam.Discretization.paper_b1

(* 2048 devices x 3 policies = 6144 traces per pass: one Montecarlo
   block, about a tenth of a second, so a run holds a few hundred
   passes and the fastest of them rejects slow host stretches. *)
let samples = 2048
let warmup_samples = 256
let slots = 40
let policies = Sched.Montecarlo.default_policies
let traces = samples * List.length policies
let model () = Sched.Montecarlo.Onoff (Stoch.Onoff.make ~slots ())

type pass = {
  setup_s : float;
  run_s : float;  (* infinity if the run raised *)
  pass_s : float;
  result : Sched.Montecarlo.t option;  (* None: it raised *)
  gc : gc_delta;
  snap : Obs.snapshot option;  (* counters of the timed run, when traced *)
}

(* [traced] switches collection on after the set-up, so the snapshot
   holds the timed run's counters alone; it stays on for the caller's
   stage replay. *)
let run_pass ?(traced = false) tally ~seed () =
  let seed = Int64.of_int seed in
  let t0 = now () in
  let model = model () in
  ignore (Sched.Montecarlo.run ~seed ~samples:warmup_samples model disc);
  let t_setup = now () in
  if traced then begin
    Obs.reset ();
    Obs.enable ~trace:true ()
  end;
  (* the timed run is one operation: one that raises is counted as
     failed and leaves the pass without a result or a time *)
  let result, gc =
    gc_measure (fun () ->
        guarded tally "fleet: Montecarlo.run" (fun () ->
            span "montecarlo.run" (fun () ->
                Sched.Montecarlo.run ~seed ~samples model disc)))
  in
  let t_end = if Option.is_none result then infinity else now () in
  let snap = if traced then Some (Obs.snapshot ()) else None in
  {
    setup_s = t_setup -. t0;
    run_s = t_end -. t_setup;
    pass_s = t_end -. t0;
    result;
    gc;
    snap;
  }

(* Structural equality that treats two NaNs as equal. *)
let same a b = compare a b = 0

(* Checks one run's result against the run's first result, if that
   run had one; a run that raised was counted as failed when it
   raised. *)
let check_result tally ~first = function
  | None -> ()
  | Some (r : Sched.Montecarlo.t) -> (
      check tally "fleet: samples completed"
        (r.mc_samples = samples && r.mc_tripped = None);
      List.iter
        (fun (s : Sched.Montecarlo.policy_summary) ->
          check tally
            (Printf.sprintf "fleet: %s deaths + survivors = samples"
               s.ps_policy)
            (s.ps_deaths + s.ps_survived = samples))
        r.mc_policies;
      match first with
      | None -> ()
      | Some f -> check tally "fleet: a repeated pass differs" (same r f))

let end_to_end tally ~seed ~seconds =
  let passes =
    repeat ~seconds
      ~check:(fun ~first p ->
        check_result tally
          ~first:(Option.bind first (fun f -> f.result))
          p.result)
      (fun () -> run_pass tally ~seed ())
  in
  let arr f = Array.of_list (List.map f passes) in
  let best = minimum (arr (fun p -> p.run_s)) in
  Printf.printf "fleet: %d passes of %d samples x %d policies\n"
    (List.length passes) samples (List.length policies);
  [
    metric "setup_s" "s" (minimum (arr (fun p -> p.setup_s)));
    metric "peak_rss_mb" "MiB" (peak_rss_mb None);
    metric "solve_s" "s" best;
    metric "decision_us_p50" "us" (1e6 *. best /. float_of_int traces);
    metric "decision_us_p99" "us" (1e6 *. best /. float_of_int traces);
    metric "traces_per_s" "1/s" (float_of_int traces /. best);
    metric "throughput_per_s" "1/s" (float_of_int samples /. best);
    metric "latency_p50_ms" "ms" (1e3 *. best);
    metric "latency_p99_ms" "ms" (1e3 *. best);
  ]

(* ---------------------------------------------------------------- *)
(* Traced run: the layer split of one Monte Carlo run               *)
(* ---------------------------------------------------------------- *)

(* Montecarlo.run's stages, replayed from outside through the public
   functions it is built from: lane sampling ([sample_load] on the
   split lane seeds), the integer encoding and the cursor compilation
   of each trace, and [Simulator.run_batch] over the same blocks and
   chunks.  Whatever the run spends beyond these is its reduction. *)
let block = 2048

let stages ~seed model =
  let seed = Int64.of_int seed in
  let pol = Array.of_list policies in
  let n_pol = Array.length pol in
  let sample_s = ref 0.0 and arrays_s = ref 0.0 and cursor_s = ref 0.0 in
  let batch_s = ref 0.0 and lanes = ref 0 in
  let timed acc name f =
    let v, dt = time (fun () -> span name f) in
    acc := !acc +. dt;
    v
  in
  let base = ref 0 in
  while !base < samples do
    let b = min block (samples - !base) in
    let sampled =
      timed sample_s "stoch.sample" (fun () ->
          Array.init b (fun k ->
              Sched.Montecarlo.sample_load model
                ~seed:(Prng.Splitmix.split seed (!base + k))))
    in
    let arrays =
      timed arrays_s "loads.arrays" (fun () ->
          Array.map
            (Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
               ~charge_unit:disc.Dkibam.Discretization.charge_unit)
            sampled)
    in
    timed cursor_s "loads.compile" (fun () ->
        Array.iter
          (fun a -> ignore (Loads.Cursor.compile_exn (Loads.Cursor.make a)))
          arrays);
    let results =
      timed batch_s "batch.run" (fun () ->
          Sched.Simulator.run_batch ~chunk:1024 ~n_batteries:2 disc
            (Array.init (b * n_pol) (fun k ->
                 {
                   Sched.Simulator.req_load = arrays.(k / n_pol);
                   req_policy = snd pol.(k mod n_pol);
                 })))
    in
    lanes := !lanes + Array.length results;
    base := !base + b
  done;
  (!sample_s, !arrays_s, !cursor_s, !batch_s, !lanes)

let per_layer tally ~seed ~seconds =
  (* untraced and traced passes alternate, so the overhead compares
     like with like *)
  let runs =
    repeat ~seconds
      ~check:(fun ~first (u, (t, _)) ->
        let f0 = Option.bind first (fun (f, _) -> f.result) in
        check_result tally ~first:f0 u.result;
        check_result tally
          ~first:(if first = None then u.result else f0)
          t.result)
      (fun () ->
        let u = run_pass tally ~seed () in
        settle ();
        let t = run_pass ~traced:true tally ~seed () in
        let st =
          guarded tally "fleet: stage replay" (fun () ->
              stages ~seed (model ()))
        in
        Obs.disable ();
        (u, (t, st)))
  in
  let first = (fst (List.hd runs)).result in
  let untraced = List.map (fun (u, _) -> u.run_s) runs in
  let traced = List.map snd runs in
  (* The scalar path must agree with the batch path, once per run. *)
  Option.iter
    (fun first ->
      Option.iter
        (fun scalar ->
          check tally "fleet: batch:false differs from the batch path"
            (same first scalar))
        (guarded tally "fleet: Montecarlo.run ~batch:false" (fun () ->
             Sched.Montecarlo.run ~batch:false ~seed:(Int64.of_int seed)
               ~samples (model ()) disc)))
    first;
  (* Every iteration replays identical work, so each stage is timed by
     its fastest repetition, as the run is: the ledger then compares
     like with like.  Counts come from the median traced pass. *)
  let fastest f = minimum (Array.of_list (List.map f traced)) in
  let stage f = function Some st -> f st | None -> infinity in
  let run_s = fastest (fun (p, _) -> p.run_s) in
  let sample_s = fastest (fun (_, st) -> stage (fun (s, _, _, _, _) -> s) st) in
  let compile_s =
    fastest (fun (_, st) -> stage (fun (_, a, c, _, _) -> a +. c) st)
  in
  (* run_batch compiles each lane's cursor itself; its engine share is
     what remains once the separately timed compilation is removed *)
  let engine_s =
    fastest (fun (_, st) -> stage (fun (_, _, c, b, _) -> b -. c) st)
  in
  let reduce_s = run_s -. (sample_s +. compile_s +. engine_s) in
  let setup_s =
    minimum (Array.of_list (List.map (fun (p, _) -> p.setup_s) traced))
  in
  List.iter
    (fun (_, st) ->
      Option.iter
        (fun (_, _, _, _, lanes) ->
          check tally "fleet: replayed lanes" (lanes = traces))
        st)
    traced;
  let p, _ =
    List.nth
      (List.sort (fun (a, _) (b, _) -> Float.compare a.run_s b.run_s) traced)
      (List.length traced / 2)
  in
  let snap = Option.get p.snap in
  let ms x = 1e3 *. x in
  let steps = Obs.counter_value snap "batch.steps" in
  let batch_lanes = Obs.counter_value snap "batch.lanes" in
  let overhead =
    100.0 *. ((run_s /. minimum (Array.of_list untraced)) -. 1.0)
  in
  let l =
    ledger ~pass_ms:(ms (setup_s +. run_s))
      [
        ("setup (model + warm-up)", ms setup_s);
        ("stoch.sample", ms sample_s);
        ("loads.compile", ms compile_s);
        ("batch.run (engine)", ms engine_s);
        ("montecarlo.reduce", ms reduce_s);
      ]
  in
  print_ledger "fleet" l;
  per_layer_result l ~overhead
    [
      ("loads.compile_ms", ms compile_s);
      ("stoch.sample_ms", ms sample_s);
      ("batch.run_ms", ms engine_s);
      ("batch.steps", float_of_int steps);
      ("batch.steps_per_ms", float_of_int steps /. ms engine_s);
      ("batch.scalar_lanes", float_of_int (traces - batch_lanes));
      ("montecarlo.reduce_ms", ms reduce_s);
      ("gc.minor_mwords", p.gc.minor_words /. 1e6);
      ("gc.major_collections", float_of_int p.gc.major_collections);
    ]
