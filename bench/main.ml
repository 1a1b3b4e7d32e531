(* Benchmark & reproduction harness.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (sections 5-6) side by side with the published
   numbers, runs the ablations DESIGN.md calls out, and finishes with
   Bechamel micro-benchmarks of the engines — one Test.make per
   reproduced artifact plus the core primitives.

   Pass a subset of artifact names to restrict the run, e.g.
   `dune exec bench/main.exe -- table5 figure6`.  Known names:
   tables12, table3, table4, table5, figure1, figure5, figure6,
   ablation-capacity, ablation-complexity, ablation-models,
   ablation-lookahead, ablation-granularity, multi-battery,
   random-ensemble, cross-validation, optimal-bench, batch-bench,
   montecarlo-bench, micro.

   `-j N` (or `--jobs N`) renders independent table/figure artifacts
   concurrently on an Exec.Pool of N domains — each artifact formats
   into its own buffer and the buffers are printed in request order, so
   the output is byte-identical to the serial run.  The two
   timing-sensitive artifacts (optimal-bench, micro) always run
   serially, after the others; optimal-bench additionally measures the
   serial-vs-parallel speedup of the optimal search and of a 50-load
   ensemble, and writes the measurements to BENCH_parallel.json;
   batch-bench measures the struct-of-arrays batch engine against the
   scalar simulator (results asserted bit-identical) and merges its
   battery-steps/sec record into the same file's "batch" block. *)

let section ppf title = Format.fprintf ppf "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Figure 1: the KiBaM two-well schematic, in ASCII                    *)
(* ------------------------------------------------------------------ *)

let figure1 ppf =
  section ppf "Figure 1: Kinetic Battery Model (schematic)";
  Format.fprintf ppf
    "    bound charge          available charge@.\
    \   +-----------+   k    +-----------+@.\
    \   |           |  ===>  |           |@.\
    \   |  y2       | valve  |  y1       |----> i(t)@.\
    \   |  (1 - c)  |        |  (c)      |@.\
    \   +-----------+        +-----------+@.\
    \       h2 = y2/(1-c)        h1 = y1/c@.\
     @.\
     dy1/dt = -i(t) + k (h2 - h1)      dy2/dt = -k (h2 - h1)@.\
     battery empty when y1 = 0  (eq. 3: gamma = (1 - c) delta)@."

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: model inventory                                     *)
(* ------------------------------------------------------------------ *)

let tables12 ppf =
  section ppf "Tables 1-2: TA-KiBaM variables and channels (model inventory)";
  Format.fprintf ppf
    "variables: n_gamma[id] (total charge, init N), m_delta[id] (height@.\
     difference, init 0), bat_empty[id], j (epoch index), empty_count,@.\
     load_time[] / cur_times[] / cur[] (the load encoding, cf. loadgen),@.\
     recov_time[] (precomputed from eq. 6).@.\
     channels: new_job (load, total_charge -> scheduler), go_on[id]@.\
     (scheduler -> total_charge), go_off (load -> total_charge),@.\
     use_charge[id] (total_charge -> height_difference), emptied@.\
     (total_charge -> max_finder), all_empty (broadcast).@."

(* ------------------------------------------------------------------ *)
(* Figure 5: the network itself, as Graphviz                           *)
(* ------------------------------------------------------------------ *)

let figure5 ppf =
  section ppf "Figure 5: the TA-KiBaM network (Graphviz)";
  let disc = Dkibam.Discretization.paper_b1 in
  let arrays = Batsched.Experiments.arrays_of ~horizon:8.0 Loads.Testloads.ILs_alt in
  let model = Takibam.Model.build ~n_batteries:2 disc arrays in
  Format.fprintf ppf "%s@." (Takibam.Model.dot model)

(* ------------------------------------------------------------------ *)
(* Reproduced evaluation artifacts                                     *)
(* ------------------------------------------------------------------ *)

let table3 ppf =
  section ppf "Table 3 (paper section 5)";
  Batsched.Report.table3 ppf (Batsched.Experiments.table3 ())

let table4 ppf =
  section ppf "Table 4 (paper section 5)";
  Batsched.Report.table4 ppf (Batsched.Experiments.table4 ())

let table5 ppf =
  section ppf "Table 5 (paper section 6)";
  Batsched.Report.table5 ppf (Batsched.Experiments.table5 ())

let figure6 ppf =
  section ppf "Figure 6 (paper section 6): ILs alt charge evolution + schedules";
  Batsched.Report.figure6 ppf ~label:"best-of-two"
    (Batsched.Experiments.figure6 `Best_of_two);
  Format.fprintf ppf "@.";
  Batsched.Report.figure6 ppf ~label:"optimal"
    (Batsched.Experiments.figure6 `Optimal)

let ablation_capacity ppf =
  section ppf "Ablation A1: stranded charge vs capacity (paper section 6 remark)";
  Batsched.Report.capacity_sweep ppf
    (Batsched.Experiments.capacity_sweep ~factors:[ 1.0; 2.0; 3.0; 5.0; 10.0 ] ())

let ablation_complexity ppf =
  section ppf "Ablation A2: optimal-search complexity (paper section 4.4)";
  Batsched.Report.complexity ppf (Batsched.Experiments.complexity_probe ())

let ablation_models ppf =
  section ppf "Ablation S9: KiBaM vs Rakhmatov-Vrudhula diffusion model";
  Batsched.Report.model_comparison ppf (Batsched.Experiments.model_comparison ())

let ablation_lookahead ppf =
  section ppf "Ablation X2: receding-horizon lookahead between best-of and optimal";
  let load = Loads.Testloads.ILs_r1 in
  Batsched.Report.lookahead_sweep ppf ~load
    (Batsched.Experiments.lookahead_sweep ~load ~ks:[ 1; 2; 3; 4; 6; 8 ] ())

let ablation_granularity ppf =
  section ppf "Ablation A3: discretization granularity (paper sections 2.3, 4.4)";
  Batsched.Report.granularity_sweep ppf (Batsched.Experiments.granularity_sweep ())

let multi_battery ppf =
  section ppf "Beyond the paper: packs of 2-4 batteries (ILs alt)";
  let load = Loads.Testloads.ILs_alt in
  Batsched.Report.multi_battery ppf ~load
    (Batsched.Experiments.multi_battery ~load ())

let random_ensemble ppf =
  section ppf
    "Random-load ensemble (section 7 outlook: what Cora could not analyze)";
  let e =
    Sched.Ensemble.run ~n_loads:30 ~jobs_per_load:40
      Dkibam.Discretization.paper_b1 ()
  in
  Batsched.Report.ensemble ppf e

let cross_validation ppf =
  section ppf "Engine cross-validation (DESIGN.md Cora substitution)";
  Batsched.Report.cross_validation ppf (Batsched.Experiments.cross_validate ())

(* ------------------------------------------------------------------ *)
(* Optimal-search wall time over the Table 5 loads, plus the           *)
(* serial-vs-parallel speedup report (BENCH_parallel.json)             *)
(* ------------------------------------------------------------------ *)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1000.0)

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let num_of_json = function
  | Obs.Json.Float f -> Some f
  | Obs.Json.Int n -> Some (float_of_int n)
  | _ -> None

(* Minimal pretty-printer over [Obs.Json.t]: lets [batch-bench] merge
   its block into BENCH_parallel.json (and [optimal-bench] preserve a
   previous batch block) without flattening the record onto one line. *)
let rec pretty_json ?(indent = 0) (j : Obs.Json.t) =
  let pad n = String.make (2 * n) ' ' in
  match j with
  | Obs.Json.Null -> "null"
  | Obs.Json.Bool b -> string_of_bool b
  | Obs.Json.Int n -> string_of_int n
  | Obs.Json.Float f -> Printf.sprintf "%.3f" f
  | Obs.Json.String s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Obs.Json.List [] -> "[]"
  | Obs.Json.List items ->
      Printf.sprintf "[\n%s\n%s]"
        (String.concat ",\n"
           (List.map
              (fun x -> pad (indent + 1) ^ pretty_json ~indent:(indent + 1) x)
              items))
        (pad indent)
  | Obs.Json.Obj [] -> "{}"
  | Obs.Json.Obj fields ->
      Printf.sprintf "{\n%s\n%s}"
        (String.concat ",\n"
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%s\"%s\": %s" (pad (indent + 1)) (json_escape k)
                  (pretty_json ~indent:(indent + 1) v))
              fields))
        (pad indent)

let read_bench_json () =
  match In_channel.with_open_bin "BENCH_parallel.json" In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
      match Obs.Json.of_string contents with Ok j -> Some j | Error _ -> None)

(* Generated long loads for the branch-and-bound A/B measurement —
   [Loads.Random_load] intermitted loads scaled past the Table 5 sizes
   (40-60 jobs vs the paper's ~20), one entry per pruning regime from
   doc/PERFORMANCE.md.  Fixed seeds: the suite is a regression artifact,
   not a fuzzer. *)
let bound_suite_entries =
  [
    (* label, battery, batteries, jobs, seed, currents, idle min *)
    ("marginal 0.25/0.5 B1 x3", "B1", 3, 40, 2L, [| 0.25; 0.5 |], 1.0);
    ("overdrive 0.5 B2 x2", "B2", 2, 60, 1L, [| 0.5 |], 0.5);
    ("mixed 0.25-1.0 B2 x2", "B2", 2, 40, 1L, [| 0.25; 0.5; 1.0 |], 1.0);
    ("overload 2.0 bursts B1 x3", "B1", 3, 40, 1L, [| 0.5; 2.0 |], 1.0);
  ]

let bound_suite ppf =
  section ppf
    "Branch-and-bound on generated long loads (bounds on vs off, identical \
     results asserted)";
  Format.fprintf ppf "  %-26s %9s %9s %7s %8s %7s %9s %9s@." "load" "segs on"
    "segs off" "ratio" "cuts" "saved" "on ms" "off ms";
  let total_cuts = ref 0 in
  let rows =
    List.map
      (fun (label, battery, n_batteries, jobs, seed, currents, idle_duration) ->
        let disc =
          match battery with
          | "B2" -> Dkibam.Discretization.paper_b2
          | _ -> Dkibam.Discretization.paper_b1
        in
        let a =
          Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
            ~charge_unit:disc.Dkibam.Discretization.charge_unit
            (Loads.Random_load.intermitted ~seed ~jobs ~currents ~idle_duration
               ())
        in
        let on, on_ms =
          time_ms (fun () ->
              Sched.Optimal.search ~bounds:true ~n_batteries disc a)
        in
        let off, off_ms =
          time_ms (fun () ->
              Sched.Optimal.search ~bounds:false ~n_batteries disc a)
        in
        if
          on.Sched.Optimal.lifetime_steps <> off.Sched.Optimal.lifetime_steps
          || on.Sched.Optimal.stranded_units <> off.Sched.Optimal.stranded_units
          || on.Sched.Optimal.schedule <> off.Sched.Optimal.schedule
        then
          failwith
            (Printf.sprintf "bound suite %S: bounds changed the result" label);
        let son = on.Sched.Optimal.stats.segments_run
        and soff = off.Sched.Optimal.stats.segments_run in
        let cuts = on.Sched.Optimal.stats.bound_cuts in
        total_cuts := !total_cuts + cuts;
        Format.fprintf ppf "  %-26s %9d %9d %6.2fx %8d %6.1f%% %9.1f %9.1f@."
          label son soff
          (float_of_int soff /. float_of_int son)
          cuts
          (100.0 *. float_of_int (soff - son) /. float_of_int (max 1 soff))
          on_ms off_ms;
        (label, n_batteries, jobs, seed, son, soff, cuts, on_ms, off_ms))
      bound_suite_entries
  in
  if !total_cuts = 0 then
    failwith "bound suite: no bound cuts fired anywhere — pruning is inert";
  Format.fprintf ppf
    "  (results bit-identical in every row; %d bound cuts over the suite — \
     see doc/PERFORMANCE.md for the regime map)@."
    !total_cuts;
  rows

let optimal_bench ~jobs ppf =
  section ppf "Optimal search on the Table 5 loads (cursor + bank kernel)";
  let disc = Dkibam.Discretization.paper_b1 in
  Format.fprintf ppf "  %-8s %9s %10s %9s  %s@." "load" "wall ms" "positions"
    "segments" "cursor schedules (epochs, jobs)";
  let total = ref 0.0 and total_sched = ref 0 in
  let serial_times =
    List.map
      (fun name ->
        let a = Batsched.Experiments.arrays_of name in
        let cursor = Loads.Cursor.make a in
        (* warm up once, then time the search proper *)
        ignore (Sched.Optimal.search ~n_batteries:2 disc a);
        let r, ms = time_ms (fun () -> Sched.Optimal.search ~n_batteries:2 disc a) in
        total := !total +. ms;
        total_sched := !total_sched + Loads.Cursor.job_count cursor;
        Format.fprintf ppf "  %-8s %9.2f %10d %9d  %d epochs, %d job schedules@."
          (Loads.Testloads.to_string name)
          ms r.stats.positions_explored r.stats.segments_run
          (Loads.Cursor.epoch_count cursor)
          (Loads.Cursor.job_count cursor);
        (name, ms))
      Loads.Testloads.all_names;
  in
  Format.fprintf ppf
    "  total %43.2f ms; %d precomputed draw schedules reused across every \
     explored position@."
    !total !total_sched;
  let bound_rows = bound_suite ppf in
  (* --- serial vs parallel ------------------------------------------ *)
  let domains =
    if jobs > 1 then jobs else max 2 (Domain.recommended_domain_count ())
  in
  section ppf
    (Printf.sprintf
       "Parallel execution: Exec.Pool of %d domains vs serial (identical \
        results, wall-clock only)"
       domains);
  Exec.Pool.with_pool ~domains (fun pool ->
      Format.fprintf ppf "  %-30s %12s %12s %9s@." "workload" "serial ms"
        "parallel ms" "speedup";
      (* per-load optimal search: root fan-out *)
      let load_rows =
        List.map
          (fun (name, serial_ms) ->
            let a = Batsched.Experiments.arrays_of name in
            ignore (Sched.Optimal.search ~pool ~n_batteries:2 disc a);
            let _, par_ms =
              time_ms (fun () -> Sched.Optimal.search ~pool ~n_batteries:2 disc a)
            in
            let label =
              Printf.sprintf "optimal %s" (Loads.Testloads.to_string name)
            in
            Format.fprintf ppf "  %-30s %12.2f %12.2f %8.2fx@." label serial_ms
              par_ms (serial_ms /. par_ms);
            (Loads.Testloads.to_string name, serial_ms, par_ms))
          serial_times
      in
      (* the headline workload: a 50-load random ensemble with the
         per-load optimal search — fanned out one load per task *)
      let run_ensemble ?pool () =
        Sched.Ensemble.run ?pool ~n_loads:50 ~jobs_per_load:40 disc ()
      in
      let e_serial, ens_serial_ms = time_ms (fun () -> run_ensemble ()) in
      let e_par, ens_par_ms = time_ms (fun () -> run_ensemble ~pool ()) in
      assert (e_serial = e_par);
      Format.fprintf ppf "  %-30s %12.2f %12.2f %8.2fx@."
        "ensemble (50 loads + optimal)" ens_serial_ms ens_par_ms
        (ens_serial_ms /. ens_par_ms);
      Format.fprintf ppf
        "  (parallel results asserted bit-identical to serial)@.";
      (* instrumented re-run of the headline workload: metrics only,
         collected after — and apart from — the wall-clock measurements
         above, so lib/obs cannot skew them *)
      Obs.reset ();
      Obs.enable ();
      ignore (run_ensemble ~pool ());
      Obs.disable ();
      let obs_json =
        Obs.Json.to_string (Obs.snapshot_json (Obs.snapshot ()))
      in
      Obs.reset ();
      (* a single-core box cannot show a speedup: flag the record so
         downstream comparisons do not read pool overhead as regression *)
      let single_core = Domain.recommended_domain_count () = 1 in
      if single_core then
        Format.fprintf ppf
          "  (single-core machine: parallel columns measure pool overhead \
           only)@.";
      (* previous run's record, if one is on disk: writes are atomic
         (below), so a torn file can only be a stale or hand-edited
         artifact — either way a note, never a failure.  The comparison
         reports the wall-times themselves, not just the speedup ratio:
         a slower machine can keep the ratio while both columns drift. *)
      let previous_ensemble =
        match
          In_channel.with_open_bin "BENCH_parallel.json" In_channel.input_all
        with
        | exception Sys_error _ -> None
        | contents -> (
            match Obs.Json.of_string contents with
            | Error _ -> Some (Error "unreadable")
            | Ok j -> (
                match Obs.Json.member "ensemble" j with
                | None -> Some (Error "missing its ensemble block")
                | Some e -> (
                    let num name =
                      Option.bind (Obs.Json.member name e) num_of_json
                    in
                    match (num "serial_ms", num "parallel_ms", num "speedup") with
                    | Some s, Some p, Some sp -> Some (Ok (s, p, sp))
                    | _ -> Some (Error "missing its ensemble wall-times"))))
      in
      (match previous_ensemble with
      | None -> ()
      | Some (Error what) ->
          Format.fprintf ppf
            "  (previous BENCH_parallel.json is %s; skipping the \
             run-over-run comparison)@."
            what
      | Some (Ok (prev_serial, prev_par, prev_speedup)) ->
          let now = ens_serial_ms /. ens_par_ms in
          Format.fprintf ppf
            "  ensemble vs previous run: serial %.0f -> %.0f ms, parallel \
             %.0f -> %.0f ms, speedup %.2fx -> %.2fx (%+.2f)@."
            prev_serial ens_serial_ms prev_par ens_par_ms prev_speedup now
            (now -. prev_speedup));
      (* machine-readable record of the same numbers *)
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n";
      Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
      Buffer.add_string buf
        (Printf.sprintf "  \"recommended_domain_count\": %d,\n"
           (Domain.recommended_domain_count ()));
      Buffer.add_string buf
        (Printf.sprintf "  \"single_core\": %b,\n" single_core);
      Buffer.add_string buf "  \"optimal_loads\": [\n";
      List.iteri
        (fun i (name, s, p) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"load\": \"%s\", \"serial_ms\": %.3f, \"parallel_ms\": \
                %.3f, \"speedup\": %.3f}%s\n"
               (json_escape name) s p (s /. p)
               (if i = List.length load_rows - 1 then "" else ",")))
        load_rows;
      Buffer.add_string buf "  ],\n";
      Buffer.add_string buf "  \"bound_suite\": [\n";
      List.iteri
        (fun i (label, n_batteries, n_jobs, seed, son, soff, cuts, on_ms, off_ms) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"load\": \"%s\", \"n_batteries\": %d, \"jobs\": %d, \
                \"seed\": %Ld, \"segments_on\": %d, \"segments_off\": %d, \
                \"segment_ratio\": %.3f, \"bound_cuts\": %d, \"on_ms\": %.3f, \
                \"off_ms\": %.3f}%s\n"
               (json_escape label) n_batteries n_jobs seed son soff
               (float_of_int soff /. float_of_int son)
               cuts on_ms off_ms
               (if i = List.length bound_rows - 1 then "" else ",")))
        bound_rows;
      Buffer.add_string buf "  ],\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  \"ensemble\": {\"n_loads\": 50, \"jobs_per_load\": 40, \
            \"n_batteries\": 2, \"include_optimal\": true, \"serial_ms\": \
            %.3f, \"parallel_ms\": %.3f, \"speedup\": %.3f},\n"
           ens_serial_ms ens_par_ms (ens_serial_ms /. ens_par_ms));
      (* blocks owned by the other timing artifacts survive an
         optimal-bench-only regeneration *)
      List.iter
        (fun key ->
          match Option.bind (read_bench_json ()) (Obs.Json.member key) with
          | None -> ()
          | Some b ->
              Buffer.add_string buf
                (Printf.sprintf "  \"%s\": %s,\n" key (pretty_json ~indent:1 b)))
        [ "batch"; "montecarlo"; "horizon" ];
      Buffer.add_string buf "  \"obs\": ";
      Buffer.add_string buf obs_json;
      Buffer.add_string buf "\n}\n";
      (* temp-file+rename: a reader (or a killed bench) never sees a
         torn BENCH_parallel.json *)
      Guard.Checkpoint.write_atomic ~path:"BENCH_parallel.json"
        (Buffer.contents buf);
      Format.fprintf ppf "  measurements written to BENCH_parallel.json@.")

(* ------------------------------------------------------------------ *)
(* Batch engine throughput: struct-of-arrays lanes vs the scalar       *)
(* simulator (the "batch" block of BENCH_parallel.json)                *)
(* ------------------------------------------------------------------ *)

let batch_bench ppf =
  section ppf
    "Batch engine: struct-of-arrays lanes vs the scalar simulator (identical \
     results asserted, single core)";
  let disc = Dkibam.Discretization.paper_b1 in
  let n_batteries = 2 in
  let policies =
    [
      (Sched.Policy.Sequential, Batch.Engine.Sequential);
      (Sched.Policy.Round_robin, Batch.Engine.Round_robin);
      (Sched.Policy.Best_of, Batch.Engine.Best_of);
    ]
  in
  (* fixed-seed generated loads scaled past the Table 5 sizes (40 jobs
     each): a regression artifact, not a fuzzer *)
  let n_loads = 32 in
  let loads =
    Array.init n_loads (fun i ->
        Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
          ~charge_unit:disc.Dkibam.Discretization.charge_unit
          (Loads.Random_load.intermitted
             ~seed:(Int64.of_int (7000 + i))
             ~jobs:40 ()))
  in
  let compiled =
    Array.map (fun a -> Loads.Cursor.compile_exn (Loads.Cursor.make a)) loads
  in
  let per_load f =
    Array.concat
      (List.map
         (fun i -> Array.of_list (List.map (f i) policies))
         (List.init n_loads Fun.id))
  in
  let lanes =
    per_load (fun i (_, bp) -> { Batch.Engine.load = i; policy = bp })
  in
  let requests =
    per_load (fun i (sp, _) ->
        { Sched.Simulator.req_load = loads.(i); req_policy = sp })
  in
  (* warm both paths up, then time each once *)
  ignore (Batch.Engine.run ~n_batteries disc ~loads:compiled ~lanes);
  ignore (Sched.Simulator.run_batch ~batch:false ~n_batteries disc requests);
  let st, batch_ms =
    time_ms (fun () -> Batch.Engine.run ~n_batteries disc ~loads:compiled ~lanes)
  in
  let scalar, scalar_ms =
    time_ms (fun () ->
        Sched.Simulator.run_batch ~batch:false ~n_batteries disc requests)
  in
  (* the bit-identity contract, asserted lane by lane — a throughput
     number for a diverging engine would be worthless *)
  Array.iteri
    (fun k (s : Sched.Simulator.batch_result) ->
      if
        Batch.State.lifetime_steps st k <> s.Sched.Simulator.res_lifetime_steps
        || Batch.State.stranded st k <> s.Sched.Simulator.res_stranded
      then
        failwith
          (Printf.sprintf "batch bench: lane %d differs from the scalar run" k))
    scalar;
  let steps = Batch.State.steps st in
  let steps_per_sec = float_of_int steps /. (batch_ms /. 1000.0) in
  Format.fprintf ppf "  lanes              %17d  (%d loads x %d policies, %dxB1)@."
    (Array.length lanes) n_loads (List.length policies) n_batteries;
  Format.fprintf ppf "  battery-steps      %17d@." steps;
  Format.fprintf ppf "  batch engine       %14.2f ms  (%.1f M battery-steps/s)@."
    batch_ms (steps_per_sec /. 1e6);
  Format.fprintf ppf "  scalar simulator   %14.2f ms  (batch speedup %.2fx)@."
    scalar_ms (scalar_ms /. batch_ms);
  Format.fprintf ppf
    "  (batched lifetimes and stranded charge bit-identical to the scalar \
     simulator on every lane)@.";
  if steps_per_sec < 1e6 then
    failwith
      (Printf.sprintf
         "batch bench: %.0f battery-steps/s is below the 1M/s floor"
         steps_per_sec);
  let previous_doc = read_bench_json () in
  (match
     Option.bind previous_doc (fun j ->
         Option.bind (Obs.Json.member "batch" j) (fun b ->
             Option.bind (Obs.Json.member "steps_per_sec" b) num_of_json))
   with
  | None -> ()
  | Some prev ->
      Format.fprintf ppf
        "  throughput vs previous run: %.1fM -> %.1fM battery-steps/s@."
        (prev /. 1e6) (steps_per_sec /. 1e6));
  let batch_obj =
    Obs.Json.Obj
      [
        ("lanes", Obs.Json.Int (Array.length lanes));
        ("loads", Obs.Json.Int n_loads);
        ("n_batteries", Obs.Json.Int n_batteries);
        ("battery_steps", Obs.Json.Int steps);
        ("batch_ms", Obs.Json.Float batch_ms);
        ("scalar_ms", Obs.Json.Float scalar_ms);
        ("speedup", Obs.Json.Float (scalar_ms /. batch_ms));
        ("steps_per_sec", Obs.Json.Float steps_per_sec);
        ( "single_core",
          Obs.Json.Bool (Domain.recommended_domain_count () = 1) );
      ]
  in
  (* merge, never clobber: the rest of BENCH_parallel.json belongs to
     optimal-bench *)
  let merged =
    match previous_doc with
    | Some (Obs.Json.Obj fields) ->
        Obs.Json.Obj
          (List.filter (fun (k, _) -> k <> "batch") fields
          @ [ ("batch", batch_obj) ])
    | _ -> Obs.Json.Obj [ ("batch", batch_obj) ]
  in
  Guard.Checkpoint.write_atomic ~path:"BENCH_parallel.json"
    (pretty_json merged ^ "\n");
  Format.fprintf ppf "  batch block written to BENCH_parallel.json@."

(* ------------------------------------------------------------------ *)
(* Monte Carlo fleet throughput: sampled stochastic traces through the *)
(* batch kernel (the "montecarlo" block of BENCH_parallel.json)        *)
(* ------------------------------------------------------------------ *)

let montecarlo_bench ppf =
  section ppf
    "Monte Carlo fleet: stochastic traces through the batch kernel (fixed \
     seed, determinism asserted, single core)";
  let disc = Dkibam.Discretization.paper_b1 in
  let samples = 10_000 in
  let slots = 40 in
  let seed = 7L in
  let model = Sched.Montecarlo.Onoff (Stoch.Onoff.make ~slots ()) in
  let run () = Sched.Montecarlo.run ~seed ~samples model disc in
  ignore (run ());
  let m, wall_ms = time_ms run in
  (* the reproducibility contract, re-asserted where the throughput is
     recorded: a second identical run must reproduce every estimate *)
  if run () <> m then
    failwith "montecarlo bench: a re-run with the same seed diverged";
  let n_policies = List.length m.Sched.Montecarlo.mc_policies in
  let traces = samples * n_policies in
  let traces_per_sec = float_of_int traces /. (wall_ms /. 1000.0) in
  Format.fprintf ppf "  samples            %17d  (onoff model, %d slots, seed %Ld)@."
    samples slots seed;
  Format.fprintf ppf "  traces             %17d  (x%d policies)@." traces
    n_policies;
  Format.fprintf ppf "  wall               %14.2f ms  (%.0f traces/s, \
                      generation + simulation + reduction)@."
    wall_ms traces_per_sec;
  Format.fprintf ppf
    "  (re-run with the same seed asserted bit-identical)@.";
  if traces_per_sec < 100.0 then
    failwith
      (Printf.sprintf "montecarlo bench: %.0f traces/s is below the 100/s floor"
         traces_per_sec);
  let previous_doc = read_bench_json () in
  (match
     Option.bind previous_doc (fun j ->
         Option.bind (Obs.Json.member "montecarlo" j) (fun b ->
             Option.bind (Obs.Json.member "traces_per_sec" b) num_of_json))
   with
  | None -> ()
  | Some prev ->
      Format.fprintf ppf
        "  throughput vs previous run: %.0f -> %.0f traces/s@." prev
        traces_per_sec);
  let mc_obj =
    Obs.Json.Obj
      [
        ("model", Obs.Json.String "onoff");
        ("seed", Obs.Json.Int (Int64.to_int seed));
        ("slots", Obs.Json.Int slots);
        ("samples", Obs.Json.Int samples);
        ("policies", Obs.Json.Int n_policies);
        ("traces", Obs.Json.Int traces);
        ("n_batteries", Obs.Json.Int m.Sched.Montecarlo.mc_n_batteries);
        ("wall_ms", Obs.Json.Float wall_ms);
        ("traces_per_sec", Obs.Json.Float traces_per_sec);
        ( "single_core",
          Obs.Json.Bool (Domain.recommended_domain_count () = 1) );
      ]
  in
  (* merge, never clobber: the rest of BENCH_parallel.json belongs to
     the other timing artifacts *)
  let merged =
    match previous_doc with
    | Some (Obs.Json.Obj fields) ->
        Obs.Json.Obj
          (List.filter (fun (k, _) -> k <> "montecarlo") fields
          @ [ ("montecarlo", mc_obj) ])
    | _ -> Obs.Json.Obj [ ("montecarlo", mc_obj) ]
  in
  Guard.Checkpoint.write_atomic ~path:"BENCH_parallel.json"
    (pretty_json merged ^ "\n");
  Format.fprintf ppf "  montecarlo block written to BENCH_parallel.json@."

(* ------------------------------------------------------------------ *)
(* Receding-horizon planner: optimality gap vs exact, and wall-clock   *)
(* (the "horizon" block of BENCH_parallel.json)                        *)
(* ------------------------------------------------------------------ *)

let horizon_bench ppf =
  section ppf
    "Receding-horizon planner: optimality gap and wall-clock vs the exact \
     search (doc/PLANNING.md)";
  let ks = [ 1; 2; 3; 4; 6; 8 ] in
  (* --- Table 5 sweep (2 x B1): gap per window size ------------------ *)
  let disc = Dkibam.Discretization.paper_b1 in
  let t5_exact =
    List.map
      (fun name ->
        let a = Batsched.Experiments.arrays_of name in
        let r, ms =
          time_ms (fun () -> Sched.Optimal.search ~n_batteries:2 disc a)
        in
        (name, a, r.Sched.Optimal.lifetime_steps, ms))
      Loads.Testloads.all_names
  in
  let t5_exact_ms =
    List.fold_left (fun acc (_, _, _, ms) -> acc +. ms) 0.0 t5_exact
  in
  Format.fprintf ppf
    "  Table 5 loads (2 x B1; exact search total %.2f ms):@." t5_exact_ms;
  Format.fprintf ppf "  %-6s %12s %11s %11s@." "k" "mean gap %" "max gap %"
    "wall ms";
  let t5_rows =
    List.map
      (fun k ->
        let policy = Sched.Horizon.policy ~k () in
        let gaps, wall =
          List.fold_left
            (fun (gaps, wall) (name, a, opt, _) ->
              let o, ms =
                time_ms (fun () ->
                    Sched.Simulator.simulate ~n_batteries:2 ~policy disc a)
              in
              let h =
                match o.Sched.Simulator.lifetime_steps with
                | Some s -> s
                | None ->
                    failwith
                      (Printf.sprintf
                         "horizon bench: batteries outlived %s under k=%d"
                         (Loads.Testloads.to_string name)
                         k)
              in
              if h > opt then
                failwith
                  (Printf.sprintf
                     "horizon bench: k=%d beats the optimum on %s — the \
                      planner or the search is broken"
                     k
                     (Loads.Testloads.to_string name));
              ((100.0 *. float_of_int (opt - h) /. float_of_int opt) :: gaps,
               wall +. ms))
            ([], 0.0) t5_exact
        in
        let mean =
          List.fold_left ( +. ) 0.0 gaps /. float_of_int (List.length gaps)
        in
        let max_gap = List.fold_left Float.max 0.0 gaps in
        Format.fprintf ppf "  %-6d %12.3f %11.3f %11.2f@." k mean max_gap wall;
        (k, mean, max_gap, wall))
      ks
  in
  (* --- long-load suite: gap AND speedup per window size ------------- *)
  Format.fprintf ppf
    "@.  Long generated loads (the bound-suite entries, 40-60 jobs):@.";
  let long_loads =
    List.map
      (fun (label, battery, n_batteries, jobs, seed, currents, idle_duration) ->
        let disc =
          match battery with
          | "B2" -> Dkibam.Discretization.paper_b2
          | _ -> Dkibam.Discretization.paper_b1
        in
        let a =
          Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
            ~charge_unit:disc.Dkibam.Discretization.charge_unit
            (Loads.Random_load.intermitted ~seed ~jobs ~currents ~idle_duration
               ())
        in
        let exact, exact_ms =
          time_ms (fun () -> Sched.Optimal.search ~n_batteries disc a)
        in
        let best_of =
          Sched.Simulator.lifetime_exn ~n_batteries
            ~policy:Sched.Policy.Best_of disc a
        in
        (label, disc, n_batteries, a, exact.Sched.Optimal.lifetime_steps,
         exact_ms, best_of))
      bound_suite_entries
  in
  let long_exact_ms =
    List.fold_left (fun acc (_, _, _, _, _, ms, _) -> acc +. ms) 0.0 long_loads
  in
  Format.fprintf ppf
    "  %-6s %11s %11s %11s %16s@." "k" "max gap %" "wall ms" "speedup"
    "vs best-of (pp)";
  let long_rows =
    List.map
      (fun k ->
        let max_gap, wall, vs_best_of =
          List.fold_left
            (fun (max_gap, wall, vs_bo)
                 (label, disc, n_batteries, a, opt, _, best_of) ->
              let policy = Sched.Horizon.policy ~k () in
              let o, ms =
                time_ms (fun () ->
                    Sched.Simulator.simulate ~n_batteries ~policy disc a)
              in
              let h =
                match o.Sched.Simulator.lifetime_steps with
                | Some s -> s
                | None ->
                    failwith
                      (Printf.sprintf
                         "horizon bench: batteries outlived %S under k=%d"
                         label k)
              in
              if h > opt then
                failwith
                  (Printf.sprintf
                     "horizon bench: k=%d beats the optimum on %S" k label);
              let gap = 100.0 *. float_of_int (opt - h) /. float_of_int opt in
              let h_min = Dkibam.Discretization.minutes_of_steps disc h in
              let opt_min = Dkibam.Discretization.minutes_of_steps disc opt in
              (* percentage points of the rr-normalized headroom the
                 planner recovers over plain best-of, per load *)
              let recovered =
                if opt_min -. best_of > 1e-9 then
                  100.0 *. (h_min -. best_of) /. (opt_min -. best_of)
                else 100.0
              in
              (Float.max max_gap gap, wall +. ms, recovered :: vs_bo))
            (0.0, 0.0, []) long_loads
        in
        let mean_recovered =
          List.fold_left ( +. ) 0.0 vs_best_of
          /. float_of_int (List.length vs_best_of)
        in
        let speedup = long_exact_ms /. wall in
        Format.fprintf ppf "  %-6d %11.3f %11.2f %10.1fx %15.1f@." k max_gap
          wall speedup mean_recovered;
        (k, max_gap, wall, speedup, mean_recovered))
      ks
  in
  Format.fprintf ppf
    "  (exact search total %.2f ms over the suite; speedup = that total \
     over the horizon wall; last column = mean %% of the best-of-to-optimal \
     headroom recovered)@."
    long_exact_ms;
  (* the headline claim, enforced where it is measured: some window is
     near-exact on the Table 5 loads (<= 2% worst-case gap) while taking
     >= 10x less wall than the exact search on the long loads *)
  let winners =
    List.filter_map
      (fun (k, _, _, speedup, _) ->
        let _, _, t5_max, _ = List.find (fun (k', _, _, _) -> k' = k) t5_rows in
        if t5_max <= 2.0 && speedup >= 10.0 then Some k else None)
      long_rows
  in
  (match winners with
  | [] ->
      failwith
        "horizon bench: no window size reaches <= 2% gap on the Table 5 \
         loads at >= 10x less wall than the exact search on the long loads"
  | k :: _ ->
      Format.fprintf ppf
        "  headline: k = %d stays within 2%% of the exact optimum on every \
         Table 5 load at >= 10x less wall than the exact search on the \
         long loads@."
        k);
  (* --- machine-readable record -------------------------------------- *)
  let t5_json =
    Obs.Json.List
      (List.map
         (fun (k, mean, max_gap, wall) ->
           Obs.Json.Obj
             [
               ("k", Obs.Json.Int k);
               ("mean_gap_pct", Obs.Json.Float mean);
               ("max_gap_pct", Obs.Json.Float max_gap);
               ("wall_ms", Obs.Json.Float wall);
             ])
         t5_rows)
  in
  let long_json =
    Obs.Json.List
      (List.map
         (fun (k, max_gap, wall, speedup, recovered) ->
           Obs.Json.Obj
             [
               ("k", Obs.Json.Int k);
               ("max_gap_pct", Obs.Json.Float max_gap);
               ("wall_ms", Obs.Json.Float wall);
               ("speedup_vs_exact", Obs.Json.Float speedup);
               ("mean_headroom_recovered_pct", Obs.Json.Float recovered);
             ])
         long_rows)
  in
  let horizon_obj =
    Obs.Json.Obj
      [
        ("table5_exact_ms", Obs.Json.Float t5_exact_ms);
        ("table5", t5_json);
        ("long_loads_exact_ms", Obs.Json.Float long_exact_ms);
        ("long_loads", long_json);
        ("best_k", Obs.Json.Int (List.hd winners));
        ( "single_core",
          Obs.Json.Bool (Domain.recommended_domain_count () = 1) );
      ]
  in
  (* merge, never clobber: the rest of BENCH_parallel.json belongs to
     the other timing artifacts *)
  let merged =
    match read_bench_json () with
    | Some (Obs.Json.Obj fields) ->
        Obs.Json.Obj
          (List.filter (fun (k, _) -> k <> "horizon") fields
          @ [ ("horizon", horizon_obj) ])
    | _ -> Obs.Json.Obj [ ("horizon", horizon_obj) ]
  in
  Guard.Checkpoint.write_atomic ~path:"BENCH_parallel.json"
    (pretty_json merged ^ "\n");
  Format.fprintf ppf "  horizon block written to BENCH_parallel.json@."

(* ------------------------------------------------------------------ *)
(* batsched serve: traffic replay through the in-process daemon        *)
(* (the "serve" block of BENCH_parallel.json)                          *)
(* ------------------------------------------------------------------ *)

(* Three passes, each asserting its piece of the daemon's contract
   where the numbers are recorded:
   - cold replay: a deterministic mixed workload, per-request latency
     (p50/p99) and throughput measured end to end through the socket;
   - crash + warm replay: the cold daemon is aborted (the simulated
     kill -9 — no final cache save), a warm daemon restarts on the same
     snapshot, and the full replay must come back byte-identical with
     cache hits to show for it;
   - overload pass: a tiny queue takes a pipelined burst and must both
     shed (structured, with retry_after_ms) and answer admitted
     requests degraded with reason "overload";
   - multi-client pass: three client domains replay per-client
     workloads through a single-domain and a 3-worker daemon; the
     multi-domain responses must be byte-identical to the single-domain
     ones, and req/s, p50/p99 and the shared-memo hit rate for both are
     recorded. *)
let serve_bench ppf =
  section ppf
    "batsched serve: traffic replay (cold, kill -9, warm bit-identity, \
     overload degradation, multi-domain replay)";
  let was_enabled = Obs.enabled () in
  let tmp suffix =
    let f = Filename.temp_file "serve_bench" suffix in
    Sys.remove f;
    f
  in
  let cache = tmp ".cache" in
  let start ?(tweak = fun c -> c) () =
    let path = tmp ".sock" in
    let stop = Guard.Cancel.create () in
    let abort = Guard.Cancel.create () in
    let cfg = tweak (Serve.Server.default_config ~socket_path:path) in
    let handle = Domain.spawn (fun () -> Serve.Server.run ~stop ~abort cfg) in
    (path, stop, abort, handle)
  in
  let with_cache c =
    { c with Serve.Server.cache_path = Some cache; cache_save_every = 1 }
  in
  let request c line =
    match Serve.Client.request c line with
    | Ok resp -> resp
    | Error e -> failwith ("serve bench: " ^ Guard.Error.to_string e)
  in
  let json_of line =
    match Obs.Json.of_string line with
    | Ok j -> j
    | Error m -> failwith ("serve bench: unparseable response: " ^ m)
  in
  (* deterministic mixed workload over every cacheable op, with repeats
     so the warm daemon has hits to prove *)
  let workload =
    List.concat_map
      (fun round ->
        [
          Printf.sprintf
            {|{"id":%d,"op":"schedule","spec":"repeat %d (job 0.5 1; idle 1)","n":2}|}
            (round * 10)
            (* repeats >= 6 so the batteries never outlive the load:
               every row is a cacheable exact answer *)
            (6 + (round mod 6));
          Printf.sprintf {|{"id":%d,"op":"compare","load":"cl_alt","n":2}|}
            ((round * 10) + 1);
          Printf.sprintf
            {|{"id":%d,"op":"montecarlo","seed":%d,"samples":500,"slots":40}|}
            ((round * 10) + 2)
            (7 + (round mod 3));
          Printf.sprintf
            {|{"id":%d,"op":"ensemble","loads":2,"jobs_per_load":15,"include_optimal":false,"seed":%d}|}
            ((round * 10) + 3)
            (round mod 3);
        ])
      (List.init 12 Fun.id)
  in
  let n_requests = List.length workload in
  let replay path =
    let c = Serve.Client.connect_exn ~wait_ms:5_000 path in
    let lat_ms = Array.make n_requests 0.0 in
    let t0 = Unix.gettimeofday () in
    let responses =
      List.mapi
        (fun i line ->
          let s = Unix.gettimeofday () in
          let resp = request c line in
          lat_ms.(i) <- (Unix.gettimeofday () -. s) *. 1e3;
          resp)
        workload
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let stats = json_of (request c {|{"op":"stats"}|}) in
    Serve.Client.close c;
    (responses, lat_ms, wall_s, stats)
  in
  (* cold replay, then the simulated kill -9 *)
  let path1, _stop1, abort1, h1 = start ~tweak:with_cache () in
  let cold, lat_ms, wall_s, _ = replay path1 in
  Guard.Cancel.cancel abort1;
  let o1 = Domain.join h1 in
  if not o1.Serve.Server.aborted then
    failwith "serve bench: abort token did not abort the daemon";
  (* warm replay on the surviving cache snapshot *)
  let path2, stop2, _abort2, h2 = start ~tweak:with_cache () in
  let warm, _, _, warm_stats = replay path2 in
  Guard.Cancel.cancel stop2;
  ignore (Domain.join h2 : Serve.Server.outcome);
  List.iter2
    (fun a b ->
      if a <> b then
        failwith
          (Printf.sprintf
             "serve bench: warm response diverged from cold\n  cold: %s\n  \
              warm: %s"
             a b))
    cold warm;
  let warm_hits =
    match
      Option.bind (Obs.Json.member "result" warm_stats) (fun r ->
          Option.bind (Obs.Json.member "cache" r) (Obs.Json.member "hits"))
    with
    | Some (Obs.Json.Int h) when h > 0 -> h
    | _ -> failwith "serve bench: warm daemon reported no cache hits"
  in
  (* overload pass: a pipelined burst through a two-slot queue *)
  let path3, stop3, _abort3, h3 =
    start
      ~tweak:(fun c ->
        {
          c with
          Serve.Server.max_queue = 2;
          degrade_watermark = 1;
          max_pending_per_conn = 64;
        })
      ()
  in
  let burst = 12 in
  let shed = ref 0 and degraded = ref 0 in
  let c = Serve.Client.connect_exn ~wait_ms:5_000 path3 in
  let buf = Buffer.create 1024 in
  for i = 1 to burst do
    Buffer.add_string buf
      (Printf.sprintf {|{"id":%d,"op":"schedule","load":"cl_alt","n":2}|} i);
    Buffer.add_char buf '\n'
  done;
  Serve.Client.send_raw c (Buffer.contents buf);
  for _ = 1 to burst do
    match Serve.Client.recv_line c with
    | Error e -> failwith ("serve bench: " ^ Guard.Error.to_string e)
    | Ok line -> (
        let j = json_of line in
        match (Obs.Json.member "ok" j, Obs.Json.member "degraded" j) with
        | Some (Obs.Json.Bool false), _ ->
            if Obs.Json.member "retry_after_ms" j = None then
              failwith "serve bench: shed response lacks retry_after_ms";
            incr shed
        | Some (Obs.Json.Bool true), Some (Obs.Json.Bool true) ->
            (match Obs.Json.member "degraded_reason" j with
            | Some (Obs.Json.String "overload") -> ()
            | _ -> failwith "serve bench: degraded response mistagged");
            incr degraded
        | _ -> ())
  done;
  Serve.Client.close c;
  Guard.Cancel.cancel stop3;
  ignore (Domain.join h3 : Serve.Server.outcome);
  if !shed < 1 || !degraded < 1 then
    failwith "serve bench: overload pass produced no shed or no degradation";
  (* multi-client pass: three client domains replay deterministic
     per-client workloads through a single-domain and then a 3-worker
     daemon; every response must agree byte for byte between the two,
     and the timings plus the shared-memo hit rate land in the block *)
  let clients = 3 in
  let client_workload ci =
    List.concat_map
      (fun round ->
        let id k = (ci * 1000) + (round * 10) + k in
        [
          Printf.sprintf
            {|{"id":%d,"op":"schedule","spec":"repeat %d (job 0.5 1; idle 1)","n":2}|}
            (id 0)
            (6 + ((round + ci) mod 6));
          Printf.sprintf {|{"id":%d,"op":"compare","load":"cl_alt","n":2}|}
            (id 1);
          (* same load as the compare row: its search must find the
             shared memo already warm *)
          Printf.sprintf {|{"id":%d,"op":"schedule","load":"cl_alt","n":2}|}
            (id 2);
        ])
      (List.init 6 Fun.id)
  in
  let multi_requests = clients * List.length (client_workload 0) in
  let multi_replay path =
    let worker ci () =
      let c = Serve.Client.connect_exn ~wait_ms:5_000 path in
      let out =
        List.map
          (fun line ->
            let s = Unix.gettimeofday () in
            let resp = request c line in
            ((Unix.gettimeofday () -. s) *. 1e3, resp))
          (client_workload ci)
      in
      Serve.Client.close c;
      out
    in
    let t0 = Unix.gettimeofday () in
    let per_client =
      List.map Domain.join
        (List.init clients (fun ci -> Domain.spawn (worker ci)))
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    (per_client, wall_s)
  in
  let run_with_domains n =
    let path, stop, _abort, h =
      start ~tweak:(fun c -> { c with Serve.Server.domains = n }) ()
    in
    let per_client, wall_s = multi_replay path in
    let c = Serve.Client.connect_exn ~wait_ms:5_000 path in
    let stats = json_of (request c {|{"op":"stats"}|}) in
    Serve.Client.close c;
    Guard.Cancel.cancel stop;
    ignore (Domain.join h : Serve.Server.outcome);
    (per_client, wall_s, stats)
  in
  let one_d, wall_1d, _ = run_with_domains 1 in
  let three_d, wall_3d, multi_stats = run_with_domains 3 in
  List.iter2
    (fun a b ->
      List.iter2
        (fun (_, ra) (_, rb) ->
          if ra <> rb then
            failwith
              (Printf.sprintf
                 "serve bench: multi-domain response diverged from \
                  single-domain\n  1d: %s\n  3d: %s"
                 ra rb))
        a b)
    one_d three_d;
  let percentiles per_client =
    let lats =
      Array.of_list (List.concat_map (List.map fst) per_client)
    in
    Array.sort compare lats;
    let n = Array.length lats in
    let pct p = lats.(min (n - 1) (int_of_float (p *. float_of_int n))) in
    (pct 0.50, pct 0.99)
  in
  let p50_1d, p99_1d = percentiles one_d in
  let p50_3d, p99_3d = percentiles three_d in
  let rps_1d = float_of_int multi_requests /. wall_1d in
  let rps_3d = float_of_int multi_requests /. wall_3d in
  let memo_int field =
    match
      Option.bind (Obs.Json.member "result" multi_stats) (fun r ->
          Option.bind (Obs.Json.member "memo" r) (Obs.Json.member field))
    with
    | Some (Obs.Json.Int v) -> v
    | _ -> failwith ("serve bench: stats lacks memo." ^ field)
  in
  let memo_hit_rate =
    float_of_int (memo_int "hits") /. float_of_int (max 1 (memo_int "lookups"))
  in
  if memo_int "hits" = 0 then
    failwith "serve bench: multi-domain replay never hit the shared memo";
  (try Sys.remove cache with Sys_error _ -> ());
  if not was_enabled then Obs.disable ();
  (* report + the "serve" block *)
  Array.sort compare lat_ms;
  let pct p =
    lat_ms.(min (n_requests - 1) (int_of_float (p *. float_of_int n_requests)))
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let rps = float_of_int n_requests /. wall_s in
  Format.fprintf ppf "  cold replay: %d requests in %.1f ms (%.0f req/s)@."
    n_requests (wall_s *. 1e3) rps;
  Format.fprintf ppf "  latency: p50 %.2f ms, p99 %.2f ms@." p50 p99;
  Format.fprintf ppf
    "  kill -9 + warm restart: %d/%d responses bit-identical, %d cache hits@."
    n_requests n_requests warm_hits;
  Format.fprintf ppf "  overload burst: %d shed, %d degraded (of %d)@." !shed
    !degraded burst;
  Format.fprintf ppf
    "  multi-client (%d clients x %d requests): 1 domain %.0f req/s (p50 \
     %.2f ms, p99 %.2f ms), 3 domains %.0f req/s (p50 %.2f ms, p99 %.2f ms)@."
    clients
    (multi_requests / clients)
    rps_1d p50_1d p99_1d rps_3d p50_3d p99_3d;
  Format.fprintf ppf
    "  multi-domain responses byte-identical to single-domain; memo hit rate \
     %.2f@."
    memo_hit_rate;
  let serve_obj =
    Obs.Json.Obj
      [
        ("requests", Obs.Json.Int n_requests);
        ("p50_ms", Obs.Json.Float p50);
        ("p99_ms", Obs.Json.Float p99);
        ("req_per_sec", Obs.Json.Float rps);
        ("degraded", Obs.Json.Int !degraded);
        ("shed", Obs.Json.Int !shed);
        ("warm_hits", Obs.Json.Int warm_hits);
        ("single_core", Obs.Json.Bool (Domain.recommended_domain_count () = 1));
        ( "multi_client",
          Obs.Json.Obj
            [
              ("clients", Obs.Json.Int clients);
              ("requests", Obs.Json.Int multi_requests);
              ("req_per_sec_1_domain", Obs.Json.Float rps_1d);
              ("p50_ms_1_domain", Obs.Json.Float p50_1d);
              ("p99_ms_1_domain", Obs.Json.Float p99_1d);
              ("req_per_sec_3_domains", Obs.Json.Float rps_3d);
              ("p50_ms_3_domains", Obs.Json.Float p50_3d);
              ("p99_ms_3_domains", Obs.Json.Float p99_3d);
              ("memo_hit_rate", Obs.Json.Float memo_hit_rate);
              ("byte_identical", Obs.Json.Bool true);
            ] );
      ]
  in
  (* merge, never clobber: the rest of BENCH_parallel.json belongs to
     the other benches *)
  let merged =
    match read_bench_json () with
    | Some (Obs.Json.Obj fields) ->
        Obs.Json.Obj
          (List.filter (fun (k, _) -> k <> "serve") fields
          @ [ ("serve", serve_obj) ])
    | _ -> Obs.Json.Obj [ ("serve", serve_obj) ]
  in
  Guard.Checkpoint.write_atomic ~path:"BENCH_parallel.json"
    (pretty_json merged ^ "\n");
  Format.fprintf ppf "  serve block written to BENCH_parallel.json@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro ppf =
  section ppf "Bechamel micro-benchmarks (one per reproduced artifact + engines)";
  let open Bechamel in
  let disc = Dkibam.Discretization.paper_b1 in
  let ils_alt = Batsched.Experiments.arrays_of Loads.Testloads.ILs_alt in
  let ils_alt_profile =
    Loads.Epoch.to_profile (Loads.Testloads.load Loads.Testloads.ILs_alt)
  in
  let toy_params = Kibam.Params.make ~c:0.166 ~k':0.122 ~capacity:20.0 in
  let toy_disc =
    Dkibam.Discretization.make ~time_step:1.0 ~charge_unit:1.0 toy_params
  in
  let toy_arrays =
    Loads.Arrays.make ~time_step:1.0 ~charge_unit:1.0
      (Loads.Epoch.cycle_until ~horizon:400.0
         (Loads.Epoch.append
            (Loads.Epoch.job ~current:0.5 ~duration:8.0)
            (Loads.Epoch.idle 4.0)))
  in
  let zone =
    let z = Pta.Dbm.up (Pta.Dbm.zero 6) in
    Pta.Dbm.constrain_cmp z ~clock:1 Pta.Expr.Le 40
  in
  let tests =
    [
      (* per-artifact regeneration costs *)
      Test.make ~name:"table3: analytic column (B1, 10 loads)"
        (Staged.stage (fun () ->
             List.iter
               (fun name ->
                 ignore
                   (Kibam.Lifetime.lifetime_exn Kibam.Params.b1
                      (Loads.Epoch.to_profile (Loads.Testloads.load name))))
               Loads.Testloads.all_names));
      Test.make ~name:"table3: dKiBaM column (B1, ILs alt)"
        (Staged.stage (fun () -> ignore (Dkibam.Engine.lifetime_exn disc ils_alt)));
      Test.make ~name:"table5: best-of-two (2xB1, ILs alt)"
        (Staged.stage (fun () ->
             ignore
               (Sched.Simulator.lifetime_exn ~n_batteries:2
                  ~policy:Sched.Policy.Best_of disc ils_alt)));
      Test.make ~name:"table5: optimal search (2xB1, ILs alt)"
        (Staged.stage (fun () ->
             ignore (Sched.Optimal.search ~n_batteries:2 disc ils_alt)));
      Test.make ~name:"figure6: traced best-of-two run"
        (Staged.stage (fun () ->
             ignore (Batsched.Experiments.figure6 `Best_of_two)));
      (* engine primitives *)
      Test.make ~name:"kibam: constant-current lifetime"
        (Staged.stage (fun () ->
             ignore (Kibam.Capacity.lifetime_constant Kibam.Params.b1 ~current:0.25)));
      Test.make ~name:"kibam: analytic step"
        (Staged.stage
           (let s = Kibam.State.full Kibam.Params.b1 in
            fun () -> ignore (Kibam.Analytic.step Kibam.Params.b1 ~current:0.25 ~elapsed:1.0 s)));
      Test.make ~name:"dkibam: battery tick_many 1000"
        (Staged.stage
           (let b = Dkibam.Battery.make disc ~n_gamma:300 ~m_delta:40 ~recov_clock:0 in
            fun () -> ignore (Dkibam.Battery.tick_many disc 1000 b)));
      Test.make ~name:"diffusion: lifetime (ILs alt)"
        (Staged.stage (fun () ->
             ignore (Diffusion.Rv.lifetime Diffusion.Rv.itsy_b1 ils_alt_profile)));
      Test.make ~name:"pta: DBM close (7 clocks)"
        (Staged.stage (fun () -> ignore (Pta.Dbm.constrain_cmp zone ~clock:2 Pta.Expr.Le 17)));
      Test.make ~name:"takibam: toy optimal (PTA min-cost search)"
        (Staged.stage (fun () ->
             ignore
               (Takibam.Optimal.search
                  (Takibam.Model.build ~n_batteries:2 toy_disc toy_arrays))));
      Test.make ~name:"pta: CTL check on toy TA-KiBaM"
        (Staged.stage
           (let model = Takibam.Model.build ~n_batteries:2 toy_disc toy_arrays in
            fun () ->
              ignore (Pta.Ctl.holds model.compiled Takibam.Props.cora_query)));
      Test.make ~name:"pta: Uppaal XML export (2xB1 ILs alt)"
        (Staged.stage
           (let model = Takibam.Model.build ~n_batteries:2 disc ils_alt in
            fun () -> ignore (Pta.Uppaal.network model.Takibam.Model.network)));
      Test.make ~name:"sched: horizon-4 run (2xB1, ILs alt)"
        (Staged.stage
           (let policy = Sched.Horizon.policy ~k:4 () in
            fun () ->
              ignore
                (Sched.Simulator.lifetime_exn ~n_batteries:2 ~policy disc ils_alt)));
    ]
  in
  let run_one test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ nanos ] ->
            let pretty =
              if nanos > 1e9 then Printf.sprintf "%8.2f s " (nanos /. 1e9)
              else if nanos > 1e6 then Printf.sprintf "%8.2f ms" (nanos /. 1e6)
              else if nanos > 1e3 then Printf.sprintf "%8.2f us" (nanos /. 1e3)
              else Printf.sprintf "%8.0f ns" nanos
            in
            Format.fprintf ppf "  %-50s %s/run@." name pretty
        | _ -> Format.fprintf ppf "  %-50s (no estimate)@." name)
      ols
  in
  List.iter run_one tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Pure render artifacts are safe to regenerate concurrently (each
   formats into its own buffer); the timing artifacts must keep the
   machine to themselves and always run serially, last. *)
let render_artifacts =
  [
    ("tables12", tables12);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("figure1", figure1);
    ("figure5", figure5);
    ("figure6", figure6);
    ("ablation-capacity", ablation_capacity);
    ("ablation-complexity", ablation_complexity);
    ("ablation-models", ablation_models);
    ("ablation-lookahead", ablation_lookahead);
    ("ablation-granularity", ablation_granularity);
    ("multi-battery", multi_battery);
    ("random-ensemble", random_ensemble);
    ("cross-validation", cross_validation);
  ]

let timing_artifacts ~jobs =
  [
    ("optimal-bench", optimal_bench ~jobs);
    ("batch-bench", batch_bench);
    ("montecarlo-bench", montecarlo_bench);
    ("horizon-bench", horizon_bench);
    ("serve-bench", serve_bench);
    ("micro", micro);
  ]

let () =
  let rec parse jobs names = function
    | [] -> (jobs, List.rev names)
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse j names rest
        | _ ->
            prerr_endline "bench: -j expects an integer >= 1";
            exit 1)
    | name :: rest -> parse jobs (name :: names) rest
  in
  let jobs, requested = parse 1 [] (List.tl (Array.to_list Sys.argv)) in
  let known = render_artifacts @ timing_artifacts ~jobs in
  let requested =
    match requested with [] -> List.map fst known | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name known) then begin
        Format.eprintf "unknown artifact %S; known: %s@." name
          (String.concat ", " (List.map fst known));
        exit 1
      end)
    requested;
  let renders, timings =
    List.partition (fun name -> List.mem_assoc name render_artifacts) requested
  in
  let ppf = Format.std_formatter in
  (* render artifacts: concurrently into buffers when -j allows, printed
     in request order either way *)
  let render name =
    let buf = Buffer.create 4096 in
    let bppf = Format.formatter_of_buffer buf in
    (List.assoc name render_artifacts) bppf;
    Format.pp_print_flush bppf ();
    Buffer.contents buf
  in
  let outputs =
    if jobs > 1 && List.length renders > 1 then
      Exec.Pool.with_pool ~domains:jobs (fun pool ->
          Exec.Pool.parallel_list_map ~chunk:1 pool render renders)
    else List.map render renders
  in
  List.iter (Format.fprintf ppf "%s") outputs;
  (* timing artifacts: always serial, in request order *)
  List.iter
    (fun name -> (List.assoc name (timing_artifacts ~jobs)) ppf)
    timings;
  Format.pp_print_flush ppf ()
