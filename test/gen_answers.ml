(* Prints the frozen answers that test_bound, test_guard and
   test_horizon check their searches against.  Regenerate with

     dune exec test/gen_answers.exe > test/search_answers.txt

   but only when a change is meant to alter answers or exploration: the
   file is what pins a refactor of the search core to the behaviour it
   replaced, work counters included. *)

let disc_b1 = Dkibam.Discretization.paper_b1
let disc_b2 = Dkibam.Discretization.paper_b2
let enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load
let arrays name = enc (Loads.Testloads.load name)
let name = Loads.Testloads.to_string
let emit id fields = print_endline (Answers.render id fields)

let simulate ~policy disc a =
  Sched.Simulator.simulate ~n_batteries:2 ~policy disc a

(* test_bound's differential corpus: every Table 5 load on 2xB1, the
   four tractable ones on 2xB2, three objectives, bounds on and off. *)
let search_corpus () =
  List.iter
    (fun (disc_name, disc, loads) ->
      List.iter
        (fun (obj_name, objective) ->
          List.iter
            (fun load ->
              List.iter
                (fun bounds ->
                  let r =
                    Sched.Optimal.search ~bounds ~objective ~n_batteries:2 disc
                      (arrays load)
                  in
                  emit
                    (Printf.sprintf "search %s %s %s %s" disc_name (name load)
                       obj_name (Answers.bounds_tag bounds))
                    (Answers.search_fields r))
                [ true; false ])
            loads)
        [
          ("max-lifetime", Sched.Optimal.Max_lifetime);
          ("min-stranded", Sched.Optimal.Min_stranded);
          ("min-lifetime", Sched.Optimal.Min_lifetime);
        ])
    [
      ("B1", disc_b1, Loads.Testloads.all_names);
      ( "B2",
        disc_b2,
        [
          Loads.Testloads.CL_500; Loads.Testloads.CL_alt;
          Loads.Testloads.ILs_500; Loads.Testloads.ILl_500;
        ] );
    ]

(* test_guard's starved searches, in both bound modes: which branches
   complete under a segment cap depends on how much the bounds cut. *)
let budget_corpus () =
  List.iter
    (fun max_segments ->
      List.iter
        (fun load ->
          List.iter
            (fun bounds ->
              let budget = Guard.Budget.create ~max_segments () in
              let r =
                Sched.Optimal.search ~budget ~bounds ~n_batteries:2 disc_b1
                  (arrays load)
              in
              emit
                (Printf.sprintf "budget %s max-segments=%d %s" (name load)
                   max_segments (Answers.bounds_tag bounds))
                (Answers.search_fields r))
            [ true; false ])
        [
          Loads.Testloads.CL_alt; Loads.Testloads.ILs_alt;
          Loads.Testloads.ILs_r1; Loads.Testloads.ILl_500;
        ])
    [ 1; 5; 50; 500 ]

let emit_run id o =
  match o.Sched.Simulator.lifetime_steps with
  | Some lifetime ->
      emit id (Answers.run_fields ~lifetime (List.map snd o.decisions))
  | None -> failwith (id ^ ": outlived the load")

(* test_horizon's window-size family, plus ILs r1 at k = 6. *)
let horizon_corpus () =
  List.iter
    (fun seed ->
      let a = enc (Loads.Random_load.intermitted ~seed ~jobs:24 ()) in
      List.iter
        (fun k ->
          emit_run
            (Printf.sprintf "horizon seed=%Ld jobs=24 k=%d" seed k)
            (simulate ~policy:(Sched.Horizon.policy ~k ()) disc_b1 a))
        [ 1; 2; 4; 8; 24 ])
    [ 101L; 202L; 303L; 404L ];
  emit_run "horizon ILs r1 k=6"
    (simulate
       ~policy:(Sched.Horizon.policy ~k:6 ())
       disc_b1 (arrays Loads.Testloads.ILs_r1))

(* test_horizon's certificates: the first plan of each load, with the
   frontier at the epoch of job k. *)
let plan_corpus () =
  List.iter
    (fun (load, ks) ->
      let cursor = Loads.Cursor.make (arrays load) in
      let epoch_count = Loads.Cursor.epoch_count cursor in
      let job_epochs =
        List.filter
          (fun y -> not (Loads.Cursor.is_idle cursor y))
          (List.init epoch_count Fun.id)
      in
      List.iter
        (fun k ->
          let frontier_epoch =
            match List.nth_opt job_epochs k with
            | Some y -> y
            | None -> epoch_count
          in
          let planner = Sched.Optimal.planner disc_b1 cursor in
          emit
            (Printf.sprintf "plan %s k=%d" (name load) k)
            (Answers.plan_fields
               (Sched.Optimal.plan planner ~frontier_epoch
                  ~y:(List.hd job_epochs) ~local:0
                  (Sched.Bank.create ~n_batteries:2 disc_b1))))
        ks)
    [
      (Loads.Testloads.CL_500, [ 1; 2; 4 ]);
      (Loads.Testloads.ILs_alt, [ 1; 2; 4 ]);
      (Loads.Testloads.ILl_250, [ 1; 2; 4 ]);
      (Loads.Testloads.ILs_r1, [ 6 ]);
    ]

let () =
  print_string
    "# Frozen answers of Sched.Optimal.search, Sched.Horizon and\n\
     # Sched.Optimal.plan: lifetimes, stranded charge, schedule digests,\n\
     # work counters, decision lists and plan values.\n\
     # Regenerate only when a change is meant to alter answers or\n\
     # exploration:  dune exec test/gen_answers.exe > test/search_answers.txt\n";
  search_corpus ();
  budget_corpus ();
  horizon_corpus ();
  plan_corpus ()
