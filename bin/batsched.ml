(* batsched — command-line front end for the battery-scheduling library.

   Subcommands:
     lifetime  — battery lifetime for one test load (single battery or a
                 multi-battery policy)
     compare   — all policies side by side on one load
     schedule  — compute and print the optimal schedule
     ensemble  — lifetime distributions over an ensemble of random loads
     montecarlo — fleet-scale lifetime distributions over sampled
                 stochastic device traces (batch kernel)
     serve     — the scheduling daemon: newline-JSON queries over a
                 Unix-domain socket, with admission control, deadlines,
                 graceful degradation and a crash-safe result cache
     call      — line client for serve (stdin requests -> stdout responses)
     tables    — reproduce the paper's Tables 3, 4 and 5
     figure6   — emit the Figure 6 data series
     trace     — charge series of a simulated run under a policy
     dot       — dump the TA-KiBaM network as Graphviz
     uppaal    — export the TA-KiBaM as an Uppaal/Cora XML model

   The search-heavy subcommands (compare, schedule, ensemble,
   montecarlo) take --jobs N to fan the work out over N domains via
   Exec.Pool; results are identical to --jobs 1, only faster.

   Every subcommand honours --stats (print the lib/obs counters after
   the output) and --trace FILE (record a Chrome trace_event JSON);
   see doc/OBSERVABILITY.md for what the numbers mean. *)

open Cmdliner

(* Exit-code contract (doc/ROBUSTNESS.md): 0 success; 2 validation
   failure (bad input, structured Guard.Error on stderr); 3 success
   under a tripped budget (the printed result is the anytime answer,
   not the exact one — scripts must be able to tell); 124 cmdliner
   usage errors (unknown flags, bad syntax — cmdliner's own code). *)
let exit_validation = 2
let exit_budget = 3

let structured_failure e =
  prerr_endline (Guard.Error.to_string e);
  exit_validation

(* Last-resort conversion of escaped exceptions into that contract:
   anything a library raises past the per-flag validation in the
   command bodies still leaves as a structured error and exit 2, never
   a backtrace. *)
let protect f =
  try f () with
  | Guard.Error.Error e -> structured_failure e
  | Sched.Optimal.Load_too_short ->
      structured_failure
        (Guard.Error.make ~subsystem:"batsched" ~field:"load"
           ~accepted:"a load the batteries cannot outlive"
           "the batteries outlive the load; extend its horizon")
  | Loads.Arrays.Not_representable msg ->
      structured_failure
        (Guard.Error.make ~subsystem:"batsched" ~field:"load" ~value:msg
           "load is not representable on the discretization grid")
  | Loads.Spec.Parse_error msg ->
      structured_failure
        (Guard.Error.make ~subsystem:"batsched" ~field:"--spec" ~value:msg
           "bad load spec")
  | Invalid_argument msg ->
      structured_failure
        (Guard.Error.make ~subsystem:"batsched" ~value:msg
           "invalid parameter combination")
  | Failure msg ->
      structured_failure
        (Guard.Error.make ~subsystem:"batsched" ~value:msg "command failed")

let load_conv =
  let parse s =
    match Loads.Testloads.of_string s with
    | Some n -> Ok n
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown load %S (try one of: %s)" s
               (String.concat ", "
                  (List.map Loads.Testloads.to_string Loads.Testloads.all_names))))
  in
  let print ppf n = Format.pp_print_string ppf (Loads.Testloads.to_string n) in
  Arg.conv (parse, print)

let load_arg =
  Arg.(
    required
    & pos 0 (some load_conv) None
    & info [] ~docv:"LOAD" ~doc:"Test load, e.g. 'ILs alt' or ils_alt.")

(* compare accepts the load either positionally or as --loads NAME, so
   scripted invocations need no argument-order care. *)
let opt_load_arg =
  Arg.(
    value
    & pos 0 (some load_conv) None
    & info [] ~docv:"LOAD" ~doc:"Test load, e.g. 'ILs alt' or ils_alt.")

let named_load_arg =
  Arg.(
    value
    & opt (some load_conv) None
    & info [ "loads" ] ~docv:"LOAD"
        ~doc:"Named alternative to the positional $(docv).")

let spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"SPEC"
        ~doc:
          "Use a load written in the spec language instead of LOAD, e.g. \
           'repeat 40 (job 0.5 1; idle 1)'.")

(* Resolve the effective load: --spec wins over a load name.  Bad specs
   come back as a structured Guard.Error rendered with the offending
   field and the accepted shape. *)
let resolve_load spec name =
  match (spec, name) with
  | Some s, _ -> (
      match Loads.Spec.parse_result s with
      | Ok load -> Ok (load, "spec load")
      | Error e -> Error (Guard.Error.to_string e))
  | None, Some n -> Ok (Loads.Testloads.load n, Loads.Testloads.to_string n)
  | None, None -> Error "no load given: name a LOAD (or use --loads/--spec)"

let arrays_of_load ~label load =
  Loads.Arrays.make_result ~input:label
    ~time_step:Batsched.Experiments.time_step
    ~charge_unit:Batsched.Experiments.charge_unit load

let battery_arg =
  Arg.(
    value & opt string "b1"
    & info [ "battery" ] ~docv:"CELL" ~doc:"Battery type: b1 (5.5 A*min) or b2 (11 A*min).")

let n_batteries_arg =
  Arg.(
    value & opt int 2
    & info [ "n" ] ~docv:"N" ~doc:"Number of batteries for scheduling commands.")

(* A policy on the command line is either a fixed heuristic or the
   receding-horizon planner, whose window and per-decision budget come
   from the separate --horizon / --horizon-budget flags (a policy_spec
   is resolved against those by [policy_of_spec]). *)
type policy_spec = Builtin of Sched.Policy.t | Horizon

let policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "sequential" | "seq" -> Ok (Builtin Sched.Policy.Sequential)
    | "round-robin" | "rr" | "round_robin" -> Ok (Builtin Sched.Policy.Round_robin)
    | "best-of" | "best" | "best2" | "best_of" -> Ok (Builtin Sched.Policy.Best_of)
    | "horizon" -> Ok Horizon
    | _ ->
        Error
          (`Msg "policy must be one of: sequential, round-robin, best-of, horizon")
  in
  let print ppf = function
    | Builtin p -> Format.pp_print_string ppf (Sched.Policy.name p)
    | Horizon -> Format.pp_print_string ppf "horizon"
  in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value
    & opt policy_conv (Builtin Sched.Policy.Best_of)
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "sequential | round-robin | best-of | horizon (the receding-horizon \
           planner; window from --horizon, per-decision budget from \
           --horizon-budget — see doc/PLANNING.md).")

let horizon_k_arg =
  Arg.(
    value & opt int 4
    & info [ "horizon" ] ~docv:"K"
        ~doc:
          "Window of the receding-horizon planner: plan $(docv) >= 1 jobs \
           ahead at every scheduling point (used by --policy horizon and the \
           compare/montecarlo horizon rows).")

let horizon_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "horizon-budget" ] ~docv:"SEGMENTS"
        ~doc:
          "Per-decision work cap of the receding-horizon planner, in \
           simulated segments; a tripped decision falls back to best-of. \
           Unset = unbudgeted.")

let check_horizon k budget f =
  if k < 1 then begin
    prerr_endline
      (Guard.Error.to_string
         (Guard.Error.make ~subsystem:"batsched" ~field:"--horizon"
            ~value:(string_of_int k) ~accepted:"an integer >= 1"
            "bad planning window"));
    exit_validation
  end
  else
    match budget with
    | Some b when b < 1 ->
        prerr_endline
          (Guard.Error.to_string
             (Guard.Error.make ~subsystem:"batsched" ~field:"--horizon-budget"
                ~value:(string_of_int b) ~accepted:"an integer >= 1"
                "bad per-decision budget"));
        exit_validation
    | _ -> f ()

let policy_of_spec ~horizon_k ~horizon_budget = function
  | Builtin p -> p
  | Horizon ->
      Sched.Horizon.policy ?budget_segments:horizon_budget ~k:horizon_k ()

let policy_label ~horizon_k ~horizon_budget = function
  | Builtin p -> Sched.Policy.name p
  | Horizon -> Sched.Horizon.name ?budget_segments:horizon_budget ~k:horizon_k ()

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the optimal search / ensemble over $(docv) domains \
           (default 1 = serial; results are identical either way).")

let no_bounds_arg =
  Arg.(
    value & flag
    & info [ "no-bounds" ]
        ~doc:
          "Disable the branch-and-bound pruning of the optimal search \
           (equivalent to BATSCHED_NO_BOUNDS=1).  Results are bit-identical \
           either way; only the work differs — the A/B switch for \
           doc/PERFORMANCE.md measurements.")

(* The flag only ever forces bounds *off*: when absent we pass [None]
   so the library default (which honours BATSCHED_NO_BOUNDS) applies. *)
let bounds_of_flag no_bounds = if no_bounds then Some false else None

(* Run [f] with a shared pool when more than one domain was asked for;
   --jobs 1 stays on the serial code path, no domains spawned. *)
let with_jobs jobs f =
  if jobs < 1 then begin
    prerr_endline
      (Guard.Error.to_string
         (Guard.Error.make ~subsystem:"batsched" ~field:"--jobs"
            ~value:(string_of_int jobs) ~accepted:"an integer >= 1"
            "bad domain count"));
    exit_validation
  end
  else if jobs = 1 then f None
  else Exec.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))

(* --stats / --trace: the observability switches, shared by every
   subcommand.  [with_obs] turns collection on around the command body,
   prints the merged stats block after the command's own output, and
   writes the Chrome trace file. *)
let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the output, print the observability counters and spans \
           (optimal-search nodes/memo hits/pruned subtrees, pool busy \
           fractions, ...; see doc/OBSERVABILITY.md).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record every span as a Chrome trace_event JSON document in \
           $(docv); open it in Perfetto or chrome://tracing.")

let obs_term = Term.(const (fun s t -> (s, t)) $ stats_arg $ trace_arg)

(* The generic stats block, plus the one derived figure the raw
   counters do not show directly: per-domain pool busy fractions
   (busy time in a domain's sink over total batch wall time). *)
let print_stats ppf snap =
  Obs.pp ppf snap;
  (match
     ( List.assoc_opt "pool.busy_ns" snap.Obs.per_domain,
       List.assoc_opt "pool.batch" snap.Obs.spans )
   with
  | Some per, Some { Obs.total_ns; _ } when total_ns > 0 ->
      Format.fprintf ppf "pool busy fractions (of %.2f ms batch wall):@."
        (float_of_int total_ns /. 1e6);
      List.iter
        (fun (d, busy) ->
          Format.fprintf ppf "  domain %d: %5.1f%%@." d
            (100.0 *. float_of_int busy /. float_of_int total_ns))
        per
  | _ -> ());
  Format.pp_print_flush ppf ()

let with_obs (stats, trace) f =
  if not (stats || Option.is_some trace) then f ()
  else begin
    Obs.enable ~trace:(Option.is_some trace) ();
    let finish () =
      Obs.disable ();
      if stats then begin
        print_newline ();
        print_stats Format.std_formatter (Obs.snapshot ())
      end;
      Option.iter
        (fun file ->
          Obs.write_trace file;
          Printf.eprintf "trace written to %s\n%!" file)
        trace
    in
    Fun.protect ~finally:finish f
  end

let params_of_battery = function
  | "b1" | "B1" -> Ok Kibam.Params.b1
  | "b2" | "B2" -> Ok Kibam.Params.b2
  | s ->
      Error
        (Guard.Error.make ~subsystem:"batsched" ~input:"--battery"
           ~field:"battery" ~value:s ~accepted:"b1 | b2"
           "unknown battery type")

let with_params battery f =
  match params_of_battery battery with
  | Error e -> structured_failure e
  | Ok params -> f params

(* --deadline / --max-segments build one Guard.Budget shared by the
   command's searches; flag validation is reported structurally, like
   every other bad input. *)
let budget_of deadline max_segments =
  let err field value accepted =
    Error
      (Guard.Error.make ~subsystem:"batsched" ~field ~value ~accepted
         "bad budget flag")
  in
  match (deadline, max_segments) with
  | Some d, _ when d <= 0.0 ->
      err "--deadline" (string_of_float d) "a positive number of seconds"
  | _, Some n when n < 1 ->
      err "--max-segments" (string_of_int n) "an integer >= 1"
  | None, None -> Ok None
  | d, s -> Ok (Some (Guard.Budget.create ?deadline_s:d ?max_segments:s ()))

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the optimal search(es).  On exhaustion \
           the search returns its best feasible schedule so far (anytime \
           behavior) and says so, instead of failing.")

let max_segments_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-segments" ] ~docv:"N"
        ~doc:
          "Work budget for the optimal search(es), in simulated segments \
           (deterministic, unlike --deadline).  Same anytime behavior.")

let budget_term = Term.(const (fun d s -> (d, s)) $ deadline_arg $ max_segments_arg)

let with_budget (deadline, max_segments) f =
  match budget_of deadline max_segments with
  | Error e -> structured_failure e
  | Ok budget -> f budget

let print_status = function
  | Sched.Optimal.Optimal -> ()
  | Sched.Optimal.Budget_exhausted { trip; fallback } ->
      Printf.printf
        "  budget exhausted (%s): %s — feasible and at least best-of-two, \
         but not proven optimal\n"
        (Guard.Budget.trip_to_string trip)
        (match fallback with
        | Sched.Optimal.Search_prefix ->
            "schedule is the best fully-searched first branch"
        | Sched.Optimal.Policy_floor ->
            "schedule is the best-of-two policy fallback")

let lifetime_cmd =
  let run obs battery n spec horizon_k horizon_budget load =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    check_horizon horizon_k horizon_budget @@ fun () ->
    let policy = policy_of_spec ~horizon_k ~horizon_budget spec in
    with_params battery (fun params ->
        let disc =
          Dkibam.Discretization.make ~time_step:Batsched.Experiments.time_step
            ~charge_unit:Batsched.Experiments.charge_unit params
        in
        let arrays = Batsched.Experiments.arrays_of load in
        if n = 1 then begin
          let analytic =
            Kibam.Lifetime.lifetime_exn params
              (Loads.Epoch.to_profile (Loads.Testloads.load load))
          in
          let discrete = Dkibam.Engine.lifetime_exn disc arrays in
          Printf.printf "load %s, one %s battery:\n"
            (Loads.Testloads.to_string load)
            battery;
          Printf.printf "  analytic KiBaM lifetime: %.3f min\n" analytic;
          Printf.printf "  dKiBaM lifetime:         %.3f min\n" discrete
        end
        else begin
          let lt =
            Sched.Simulator.lifetime_exn ~n_batteries:n ~policy disc arrays
          in
          Printf.printf "load %s, %d x %s batteries, %s: lifetime %.3f min\n"
            (Loads.Testloads.to_string load)
            n battery
            (policy_label ~horizon_k ~horizon_budget spec)
            lt
        end;
        0)
  in
  let term =
    Term.(
      const run $ obs_term $ battery_arg $ n_batteries_arg $ policy_arg
      $ horizon_k_arg $ horizon_budget_arg $ load_arg)
  in
  Cmd.v (Cmd.info "lifetime" ~doc:"Battery lifetime for one test load.") term

let compare_cmd =
  let run obs battery n jobs budget no_bounds horizon_k horizon_budget spec
      named pos_load =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    check_horizon horizon_k horizon_budget @@ fun () ->
    with_params battery (fun params ->
        let name = match named with Some _ -> named | None -> pos_load in
        match resolve_load spec name with
        | Error e ->
            prerr_endline e;
            exit_validation
        | Ok (load, label) -> (
            let disc =
              Dkibam.Discretization.make
                ~time_step:Batsched.Experiments.time_step
                ~charge_unit:Batsched.Experiments.charge_unit params
            in
            match arrays_of_load ~label load with
            | Error e -> structured_failure e
            | Ok arrays ->
                let lt policy =
                  Sched.Simulator.lifetime_exn ~n_batteries:n ~policy disc
                    arrays
                in
                with_budget budget @@ fun budget ->
                with_jobs jobs (fun pool ->
                    Printf.printf "load %s, %d x %s batteries:\n" label n
                      battery;
                    let rows =
                      List.map
                        (fun (name, policy) ->
                          let l = lt policy in
                          Printf.printf "  %-11s: %8.3f min\n" name l;
                          (name, Some l))
                        [
                          ("sequential", Sched.Policy.Sequential);
                          ("round robin", Sched.Policy.Round_robin);
                          ("best-of", Sched.Policy.Best_of);
                          ( policy_label ~horizon_k ~horizon_budget Horizon,
                            policy_of_spec ~horizon_k ~horizon_budget Horizon );
                        ]
                    in
                    let r =
                      Sched.Optimal.search ?pool ?budget
                        ?bounds:(bounds_of_flag no_bounds) ~n_batteries:n disc
                        arrays
                    in
                    let optimal, floor =
                      Sched.Optimal.floored_minutes disc r rows
                    in
                    Printf.printf "  optimal    : %8.3f min%s\n" optimal
                      (match floor with
                      | None -> ""
                      | Some row ->
                          Printf.sprintf " (floored by the %s row)" row);
                    print_status r.status;
                    match r.status with
                    | Sched.Optimal.Optimal -> 0
                    | Sched.Optimal.Budget_exhausted _ -> exit_budget)))
  in
  let term =
    Term.(
      const run $ obs_term $ battery_arg $ n_batteries_arg $ jobs_arg
      $ budget_term $ no_bounds_arg $ horizon_k_arg $ horizon_budget_arg
      $ spec_arg $ named_load_arg $ opt_load_arg)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"All scheduling policies side by side on one load.")
    term

let schedule_cmd =
  let run obs battery n jobs budget no_bounds spec horizon_k horizon_budget
      ckpt_file ckpt_every resume load =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    check_horizon horizon_k horizon_budget @@ fun () ->
    with_params battery (fun params ->
        let disc =
          Dkibam.Discretization.make ~time_step:Batsched.Experiments.time_step
            ~charge_unit:Batsched.Experiments.charge_unit params
        in
        let arrays = Batsched.Experiments.arrays_of load in
        match spec with
        | Some spec ->
            (* Simulate the named policy and print ITS schedule — the
               planner's output in the same shape as the search's, so the
               two are diffable. *)
            let policy = policy_of_spec ~horizon_k ~horizon_budget spec in
            let o =
              Sched.Simulator.simulate ~n_batteries:n ~policy disc arrays
            in
            let decisions = List.map snd o.Sched.Simulator.decisions in
            (match o.Sched.Simulator.lifetime_steps with
            | Some st ->
                Printf.printf
                  "%s schedule for %s (%d x %s): lifetime %.3f min, %d \
                   decisions\n"
                  (policy_label ~horizon_k ~horizon_budget spec)
                  (Loads.Testloads.to_string load)
                  n battery
                  (Dkibam.Discretization.minutes_of_steps disc st)
                  (List.length decisions)
            | None ->
                Printf.printf
                  "%s schedule for %s (%d x %s): batteries outlived the \
                   load, %d decisions\n"
                  (policy_label ~horizon_k ~horizon_budget spec)
                  (Loads.Testloads.to_string load)
                  n battery (List.length decisions));
            List.iteri
              (fun k b -> Printf.printf "  decision %2d -> battery %d\n" k b)
              decisions;
            0
        | None ->
        with_budget budget @@ fun budget ->
        if ckpt_every < 1 then begin
          prerr_endline
            (Guard.Error.to_string
               (Guard.Error.make ~subsystem:"batsched"
                  ~field:"--checkpoint-every"
                  ~value:(string_of_int ckpt_every) ~accepted:"an integer >= 1"
                  "bad checkpoint cadence"));
          exit_validation
        end
        else begin
          let checkpoint =
            Option.map
              (Sched.Optimal.checkpoint ~every_segments:ckpt_every ~resume)
              ckpt_file
          in
          with_jobs jobs (fun pool ->
              match
                Sched.Optimal.search ?pool ?budget ?checkpoint
                  ?bounds:(bounds_of_flag no_bounds) ~n_batteries:n disc arrays
              with
              | exception Guard.Error.Error e ->
                  (* e.g. a checkpoint from different inputs on --resume *)
                  structured_failure e
              | r ->
                  Printf.printf
                    "%s schedule for %s (%d x %s): lifetime %.3f min, %d \
                     decisions\n"
                    (match r.Sched.Optimal.status with
                    | Sched.Optimal.Optimal -> "optimal"
                    | Sched.Optimal.Budget_exhausted _ -> "anytime")
                    (Loads.Testloads.to_string load)
                    n battery
                    (Dkibam.Discretization.minutes_of_steps disc
                       r.lifetime_steps)
                    (Array.length r.schedule);
                  print_status r.status;
                  Array.iteri
                    (fun k b ->
                      Printf.printf "  decision %2d -> battery %d\n" k b)
                    r.schedule;
                  match r.Sched.Optimal.status with
                  | Sched.Optimal.Optimal -> 0
                  | Sched.Optimal.Budget_exhausted _ -> exit_budget)
        end)
  in
  let ckpt_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically snapshot the search memo to $(docv) (atomic \
             temp-file+rename writes; forces the serial search).  A killed \
             run can then continue with --resume.")
  in
  let ckpt_every_arg =
    Arg.(
      value & opt int 65536
      & info [ "checkpoint-every" ] ~docv:"SEGMENTS"
          ~doc:"Snapshot cadence in simulated segments.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Preload the --checkpoint file if it exists (it must come from \
             the same load, pack and search settings); the result is \
             identical to an uninterrupted run.")
  in
  let sched_policy_arg =
    Arg.(
      value
      & opt (some policy_conv) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Simulate $(docv) (sequential | round-robin | best-of | horizon) \
             and print the schedule it produces instead of searching for the \
             optimal one.  The search flags (--jobs, --deadline, \
             --checkpoint, ...) apply only to the default optimal search.")
  in
  let term =
    Term.(
      const run $ obs_term $ battery_arg $ n_batteries_arg $ jobs_arg
      $ budget_term $ no_bounds_arg $ sched_policy_arg $ horizon_k_arg
      $ horizon_budget_arg $ ckpt_file_arg $ ckpt_every_arg $ resume_arg
      $ load_arg)
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:
         "Compute and print the optimal schedule (or, with --policy, the \
          schedule a policy produces).")
    term

let ensemble_cmd =
  let run obs battery n jobs budget no_bounds seed n_loads jobs_per_load
      no_optimal =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    with_params battery (fun params ->
        let disc =
          Dkibam.Discretization.make ~time_step:Batsched.Experiments.time_step
            ~charge_unit:Batsched.Experiments.charge_unit params
        in
        with_budget budget @@ fun budget ->
        with_jobs jobs (fun pool ->
            let e =
              Sched.Ensemble.run ?pool ?budget ~seed:(Int64.of_int seed)
                ~n_loads ~jobs_per_load ~n_batteries:n
                ~include_optimal:(not no_optimal)
                ?bounds:(bounds_of_flag no_bounds) disc ()
            in
            Batsched.Report.ensemble Format.std_formatter e;
            Format.pp_print_flush Format.std_formatter ();
            if e.Sched.Ensemble.budget_exhausted > 0 then exit_budget else 0))
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed for the load ensemble.")
  in
  let loads_arg =
    Arg.(
      value & opt int 50
      & info [ "loads" ] ~docv:"K" ~doc:"Number of random loads to draw.")
  in
  let jobs_per_load_arg =
    Arg.(
      value & opt int 60
      & info [ "jobs-per-load" ] ~docv:"J"
          ~doc:"Random 250/500 mA jobs per load.")
  in
  let no_optimal_arg =
    Arg.(
      value & flag
      & info [ "no-optimal" ]
          ~doc:
            "Skip the per-load optimal search; gains are then measured \
             against best-of (the report says so explicitly).")
  in
  let term =
    Term.(
      const run $ obs_term $ battery_arg $ n_batteries_arg $ jobs_arg
      $ budget_term $ no_bounds_arg $ seed_arg $ loads_arg $ jobs_per_load_arg
      $ no_optimal_arg)
  in
  Cmd.v
    (Cmd.info "ensemble"
       ~doc:
         "Lifetime distributions over an ensemble of random loads (the \
          paper's section 7 outlook), optionally across --jobs domains.")
    term

let montecarlo_cmd =
  let run obs battery n jobs budget model_name seed samples deadline_min p_on
      p_off currents levels dwell slot slots block horizon horizon_budget =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    check_horizon (Option.value ~default:1 horizon) horizon_budget @@ fun () ->
    with_params battery (fun params ->
        let disc =
          Dkibam.Discretization.make ~time_step:Batsched.Experiments.time_step
            ~charge_unit:Batsched.Experiments.charge_unit params
        in
        (* Model construction: Stoch validation errors are structured
           (Guard.Error) and name the offending flag's field. *)
        let model =
          match String.lowercase_ascii model_name with
          | "onoff" -> (
              try
                Ok
                  (Sched.Montecarlo.Onoff
                     (Stoch.Onoff.make ~p_on ~p_off
                        ~currents:(Array.of_list currents) ~slot ~slots ()))
              with Guard.Error.Error e -> Error e)
          | "env" -> (
              try
                Ok
                  (Sched.Montecarlo.Env
                     (Stoch.Env.make ~levels:(Array.of_list levels)
                        ~mean_dwell:dwell ~slot ~slots ()))
              with Guard.Error.Error e -> Error e)
          | s ->
              Error
                (Guard.Error.make ~subsystem:"batsched" ~field:"--model"
                   ~value:s ~accepted:"onoff | env" "unknown stochastic model")
        in
        match model with
        | Error e -> structured_failure e
        | Ok model ->
            if samples < 1 then begin
              prerr_endline
                (Guard.Error.to_string
                   (Guard.Error.make ~subsystem:"batsched" ~field:"--samples"
                      ~value:(string_of_int samples)
                      ~accepted:"an integer >= 1" "bad sample count"));
              exit_validation
            end
            else
              with_budget budget @@ fun budget ->
              with_jobs jobs (fun pool ->
                  (* --horizon appends a receding-horizon lane to the
                     built-in policies; it runs on the scalar simulator
                     path per lane (Custom), the rest stay batched. *)
                  let policies =
                    Option.map
                      (fun k ->
                        Sched.Montecarlo.default_policies
                        @ [
                            ( Sched.Horizon.name
                                ?budget_segments:horizon_budget ~k (),
                              Sched.Horizon.policy
                                ?budget_segments:horizon_budget ~k () );
                          ])
                      horizon
                  in
                  match
                    Sched.Montecarlo.run ?pool ?budget ?block ?policies
                      ?deadline_min ~seed:(Int64.of_int seed) ~samples
                      ~n_batteries:n model disc
                  with
                  | exception Loads.Arrays.Not_representable msg ->
                      structured_failure
                        (Guard.Error.make ~subsystem:"batsched"
                           ~field:"model parameters" ~value:msg
                           ~accepted:
                             "slot durations and currents on the \
                              discretization grid"
                           "sampled load is not representable")
                  | m ->
                      Batsched.Report.montecarlo Format.std_formatter m;
                      Format.pp_print_flush Format.std_formatter ();
                      if Option.is_some m.Sched.Montecarlo.mc_tripped then
                        exit_budget
                      else 0))
  in
  let model_arg =
    Arg.(
      value & opt string "onoff"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Stochastic load model: $(b,onoff) (Markov-modulated on/off \
             jobs) or $(b,env) (random-environment drain).  See \
             doc/STOCHASTICS.md.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Root seed; per-device seeds are split from it, so equal seeds \
             and sample counts reproduce the distributions bit-for-bit \
             regardless of --jobs.")
  in
  let samples_arg =
    Arg.(
      value & opt int 50_000
      & info [ "samples" ] ~docv:"N" ~doc:"Device traces to sample.")
  in
  let deadline_min_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-min" ] ~docv:"MINUTES"
          ~doc:
            "Also estimate P(system death strictly before $(docv)) per \
             policy.  (Mission deadline in simulated minutes — distinct \
             from --deadline, the wall-clock budget in seconds.)")
  in
  let p_on_arg =
    Arg.(
      value & opt float 0.5
      & info [ "p-on" ] ~docv:"P" ~doc:"onoff: P(off -> on) per slot.")
  in
  let p_off_arg =
    Arg.(
      value & opt float 0.5
      & info [ "p-off" ] ~docv:"P" ~doc:"onoff: P(on -> off) per slot.")
  in
  let currents_arg =
    Arg.(
      value
      & opt (list float) [ 0.25; 0.5 ]
      & info [ "currents" ] ~docv:"AMPS"
          ~doc:"onoff: comma-separated burst currents, drawn per burst.")
  in
  let levels_arg =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.25; 0.5 ]
      & info [ "levels" ] ~docv:"AMPS"
          ~doc:"env: comma-separated distinct drain levels (0 = idle).")
  in
  let dwell_arg =
    Arg.(
      value & opt float 4.0
      & info [ "dwell" ] ~docv:"SLOTS" ~doc:"env: mean sojourn length in slots.")
  in
  let slot_arg =
    Arg.(
      value & opt float 1.0
      & info [ "slot" ] ~docv:"MINUTES" ~doc:"Slot duration for both models.")
  in
  let slots_arg =
    Arg.(
      value & opt int 40
      & info [ "slots" ] ~docv:"K"
          ~doc:
            "Horizon in slots.  Traces whose batteries survive the horizon \
             are right-censored; size it so deaths dominate.")
  in
  let block_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "block" ] ~docv:"N"
          ~doc:
            "Samples generated and batched per pass (default 2048); a \
             memory/wall-clock knob that never changes the results.")
  in
  let mc_horizon_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ] ~docv:"K"
          ~doc:
            "Also estimate a receding-horizon lane planning $(docv) >= 1 \
             jobs ahead (scalar simulator path; the built-in policies stay \
             batched).  See doc/PLANNING.md.")
  in
  let term =
    Term.(
      const run $ obs_term $ battery_arg $ n_batteries_arg $ jobs_arg
      $ budget_term $ model_arg $ seed_arg $ samples_arg $ deadline_min_arg
      $ p_on_arg $ p_off_arg $ currents_arg $ levels_arg $ dwell_arg
      $ slot_arg $ slots_arg $ block_arg $ mc_horizon_arg $ horizon_budget_arg)
  in
  Cmd.v
    (Cmd.info "montecarlo"
       ~doc:
         "Monte Carlo fleet estimation: policy lifetime distributions \
          (percentiles, death probabilities, pairwise dominance with \
          confidence intervals) over sampled stochastic device traces, on \
          the batch kernel.")
    term

(* ---------------------------------------------------------------- *)
(* serve / call — the scheduling daemon and its line client          *)
(* ---------------------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let run obs socket cache save_every cache_entries memo_entries domains
      max_conns queue watermark horizon_k degrade_budget max_frame max_pending
      max_requests idle_timeout drain_deadline jobs chaos =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    let with_serve_pool f =
      if jobs < 1 then begin
        prerr_endline
          (Guard.Error.to_string
             (Guard.Error.make ~subsystem:"batsched" ~field:"--jobs"
                ~value:(string_of_int jobs) ~accepted:"an integer >= 1"
                "bad domain count"));
        exit_validation
      end
      else if jobs = 1 && not chaos then f None
      else begin
        (* --chaos arms the pool's fault injector (CHAOS_SEED seeds it):
           the CI chaos pass asserts the daemon's answers stay exact
           while its workers crash and stall underneath it. *)
        let chaos_t =
          if chaos then
            Some
              (Guard.Chaos.create ~crash_prob:0.02 ~delay_prob:0.05
                 ~seed:(Guard.Chaos.seed_from_env ~default:20260808L ())
                 ())
          else None
        in
        let pool = Exec.Pool.create ~domains:(max 2 jobs) ?chaos:chaos_t () in
        Fun.protect
          ~finally:(fun () -> Exec.Pool.shutdown pool)
          (fun () -> f (Some pool))
      end
    in
    with_serve_pool (fun pool ->
        let cfg =
          {
            (Serve.Server.default_config ~socket_path:socket) with
            max_conns;
            max_queue = queue;
            degrade_watermark = watermark;
            degrade_horizon_k = horizon_k;
            degrade_budget;
            max_frame_bytes = max_frame;
            max_pending_per_conn = max_pending;
            max_requests_per_conn = max_requests;
            idle_timeout_s = idle_timeout;
            drain_deadline_s = drain_deadline;
            cache_path = cache;
            cache_save_every = save_every;
            cache_max_entries = cache_entries;
            memo_max_entries = memo_entries;
            domains;
            pool;
          }
        in
        let outcome = Serve.Server.run ~handle_signals:true cfg in
        Printf.eprintf "batsched serve: drained after %d requests\n%!"
          outcome.Serve.Server.requests_served;
        0)
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Persist the result cache to $(docv) (atomic checkpoint \
             snapshots; a restart warm-starts from it bit-identically).")
  in
  let save_every_arg =
    Arg.(
      value & opt int 32
      & info [ "cache-save-every" ] ~docv:"N"
          ~doc:"Autosave the cache every $(docv) new entries.")
  in
  let cache_entries_arg =
    Arg.(
      value & opt int 65536
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:
            "Result-cache size bound (second-chance eviction; evicted \
             answers recompute bit-identically).")
  in
  let memo_entries_arg =
    Arg.(
      value & opt int 65536
      & info [ "memo-entries" ] ~docv:"N"
          ~doc:
            "Size bound of the process-wide exact-value memo shared \
             across requests and worker domains.")
  in
  let serve_domains_arg =
    Arg.(
      value & opt int 1
      & info [ "serve-domains" ] ~docv:"N"
          ~doc:
            "Worker domains computing requests concurrently; 1 computes \
             inline on the event loop.  Non-degraded responses are \
             byte-identical at any value (supersedes $(b,--jobs), which \
             only parallelizes within one request and is ignored when \
             $(docv) > 1).")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N" ~doc:"Concurrent connection cap.")
  in
  let queue_arg =
    Arg.(
      value & opt int 128
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue capacity; a full queue sheds requests with a \
             structured overloaded error and a retry_after_ms hint.")
  in
  let watermark_arg =
    Arg.(
      value & opt int 64
      & info [ "watermark" ] ~docv:"N"
          ~doc:
            "Queue depth beyond which exact-search requests degrade to the \
             receding-horizon planner (responses say so).")
  in
  let degrade_horizon_arg =
    Arg.(
      value & opt int 4
      & info [ "degrade-horizon" ] ~docv:"K"
          ~doc:"Planner window of degraded answers.")
  in
  let degrade_budget_arg =
    Arg.(
      value & opt int 2000
      & info [ "degrade-budget" ] ~docv:"SEGMENTS"
          ~doc:"Per-decision work cap of degraded answers.")
  in
  let max_frame_arg =
    Arg.(
      value & opt int 65536
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Longest accepted request line.")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 16
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Unanswered requests allowed per connection.")
  in
  let max_requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Lifetime request cap per connection (unset = unlimited).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections silent this long.")
  in
  let drain_deadline_arg =
    Arg.(
      value & opt float 10.0
      & info [ "drain-deadline" ] ~docv:"SECONDS"
          ~doc:"Hard cap on the SIGTERM/SIGINT draining phase.")
  in
  let chaos_flag =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Arm the domain pool's seeded fault injector (CHAOS_SEED; \
             see doc/ROBUSTNESS.md) — the CI resilience pass.")
  in
  let term =
    Term.(
      const run $ obs_term $ socket_arg $ cache_arg $ save_every_arg
      $ cache_entries_arg $ memo_entries_arg $ serve_domains_arg
      $ max_conns_arg $ queue_arg $ watermark_arg $ degrade_horizon_arg
      $ degrade_budget_arg $ max_frame_arg $ max_pending_arg
      $ max_requests_arg $ idle_timeout_arg $ drain_deadline_arg $ jobs_arg
      $ chaos_flag)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: newline-JSON queries over a \
          Unix-domain socket, with admission control, per-request \
          deadlines, graceful degradation and a crash-safe result cache \
          (doc/ROBUSTNESS.md).")
    term

let call_cmd =
  let run obs socket wait_ms =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    match Serve.Client.connect ~wait_ms socket with
    | Error e -> structured_failure e
    | Ok client ->
        let rc = ref 0 in
        (try
           while !rc = 0 do
             let line = input_line stdin in
             if String.trim line <> "" then
               match Serve.Client.request client line with
               | Ok response -> print_endline response
               | Error e ->
                   prerr_endline (Guard.Error.to_string e);
                   rc := exit_validation
           done
         with End_of_file -> ());
        Serve.Client.close client;
        !rc
  in
  let wait_arg =
    Arg.(
      value & opt int 0
      & info [ "wait-ms" ] ~docv:"MS"
          ~doc:
            "Keep retrying the connection for up to $(docv) milliseconds — \
             for scripts that race the daemon's startup.")
  in
  let term = Term.(const run $ obs_term $ socket_arg $ wait_arg) in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send request lines from stdin to a running daemon and print the \
          response lines — the scriptable client half of $(b,serve).")
    term

let tables_cmd =
  let run obs () =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    let ppf = Format.std_formatter in
    Batsched.Report.table3 ppf (Batsched.Experiments.table3 ());
    Format.pp_print_newline ppf ();
    Batsched.Report.table4 ppf (Batsched.Experiments.table4 ());
    Format.pp_print_newline ppf ();
    Batsched.Report.table5 ppf (Batsched.Experiments.table5 ());
    0
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's Tables 3, 4 and 5.")
    Term.(const run $ obs_term $ const ())

let figure6_cmd =
  let run obs () =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    let ppf = Format.std_formatter in
    Batsched.Report.figure6 ppf ~label:"best-of-two"
      (Batsched.Experiments.figure6 `Best_of_two);
    Format.pp_print_newline ppf ();
    Batsched.Report.figure6 ppf ~label:"optimal"
      (Batsched.Experiments.figure6 `Optimal);
    0
  in
  Cmd.v
    (Cmd.info "figure6" ~doc:"Emit the Figure 6 charge/schedule series.")
    Term.(const run $ obs_term $ const ())

let trace_cmd =
  let run obs battery n pspec horizon_k horizon_budget spec load sample =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    check_horizon horizon_k horizon_budget @@ fun () ->
    let policy = policy_of_spec ~horizon_k ~horizon_budget pspec in
    with_params battery (fun params ->
        match resolve_load spec (Some load) with
        | Error e ->
            prerr_endline e;
            exit_validation
        | Ok (load, label) -> (
            let disc =
              Dkibam.Discretization.make
                ~time_step:Batsched.Experiments.time_step
                ~charge_unit:Batsched.Experiments.charge_unit params
            in
            match arrays_of_load ~label load with
            | Error e -> structured_failure e
            | Ok arrays ->
            let o =
              Sched.Simulator.simulate ~trace_every:sample ~n_batteries:n
                ~policy disc arrays
            in
            Printf.printf
              "# %s, %d x %s, %s: time(min), per battery total and available (A*min), serving\n"
              label n battery
              (policy_label ~horizon_k ~horizon_budget pspec);
            List.iter
              (fun (s : Sched.Simulator.sample) ->
                Printf.printf "%8.2f"
                  (Dkibam.Discretization.minutes_of_steps disc s.s_step);
                Array.iter
                  (fun b ->
                    Printf.printf " %8.4f %8.4f"
                      (Dkibam.Battery.total_charge disc b)
                      (Dkibam.Battery.available_charge disc b))
                  s.s_batteries;
                (match s.s_serving with
                | Some b -> Printf.printf " %d\n" b
                | None -> Printf.printf " -\n"))
              o.samples;
            (match o.lifetime_steps with
            | Some st ->
                Printf.printf "# system died at %.2f min\n"
                  (Dkibam.Discretization.minutes_of_steps disc st)
            | None -> Printf.printf "# batteries outlived the load\n");
            0))
  in
  let sample_arg =
    Arg.(
      value & opt int 10
      & info [ "sample" ] ~docv:"STEPS" ~doc:"Sampling interval in time steps.")
  in
  let term =
    Term.(
      const run $ obs_term $ battery_arg $ n_batteries_arg $ policy_arg
      $ horizon_k_arg $ horizon_budget_arg $ spec_arg $ load_arg $ sample_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Emit the per-battery charge series of a simulated run (gnuplot-ready).")
    term

let uppaal_cmd =
  let run obs n load =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    let disc = Dkibam.Discretization.paper_b1 in
    let arrays = Batsched.Experiments.arrays_of load in
    let model = Takibam.Model.build ~n_batteries:n disc arrays in
    print_string
      (Pta.Uppaal.network
         ~queries:[ "A[] not max_finder.done_" ]
         model.Takibam.Model.network);
    0
  in
  let term = Term.(const run $ obs_term $ n_batteries_arg $ load_arg) in
  Cmd.v
    (Cmd.info "uppaal"
       ~doc:
         "Export the TA-KiBaM network as an Uppaal/Cora XML model (with the           paper's query).")
    term

let dot_cmd =
  let run obs n load =
    with_obs obs @@ fun () ->
    protect @@ fun () ->
    let disc = Dkibam.Discretization.paper_b1 in
    let arrays = Batsched.Experiments.arrays_of load in
    let model = Takibam.Model.build ~n_batteries:n disc arrays in
    print_string (Takibam.Model.dot model);
    0
  in
  let term = Term.(const run $ obs_term $ n_batteries_arg $ load_arg) in
  Cmd.v
    (Cmd.info "dot" ~doc:"Dump the TA-KiBaM network (Figure 5) as Graphviz.")
    term

let () =
  let info =
    Cmd.info "batsched" ~version:"1.0.0"
      ~doc:
        "Battery scheduling with the Kinetic Battery Model — a reproduction \
         of Jongerden et al., DSN 2009."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            lifetime_cmd;
            compare_cmd;
            schedule_cmd;
            ensemble_cmd;
            montecarlo_cmd;
            serve_cmd;
            call_cmd;
            tables_cmd;
            figure6_cmd;
            trace_cmd;
            dot_cmd;
            uppaal_cmd;
          ]))
