(* lib/obs contract tests: deterministic merges across domain counts,
   span nesting, disabled-mode inertness, JSON round-trips — plus the
   regression that ties the Obs counters of the optimal search to the
   search's own [stats] record, and that observability cannot change
   results.

   The Obs registry is global process state, so every test begins with
   [Obs.reset] and ends disabled; alcotest runs the cases
   sequentially. *)

let c_test = Obs.counter "test.counter"
let g_test = Obs.gauge "test.gauge"
let h_test = Obs.histogram "test.hist"
let s_outer = Obs.span "test.outer"
let s_inner = Obs.span "test.inner"

let fresh ?trace () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ?trace ()

let done_ () = Obs.disable ()

(* ------------------------------------------------------------------ *)
(* merge determinism                                                   *)
(* ------------------------------------------------------------------ *)

(* Each of [domains] workers bumps the same counter a known number of
   times; the merged total must be the grand sum whatever the domain
   count, and the per-domain breakdown must re-sum to the total. *)
let test_counter_merge () =
  List.iter
    (fun domains ->
      fresh ();
      let per_worker = 1000 in
      let workers =
        Array.init (domains - 1) (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_worker do
                  Obs.incr c_test
                done))
      in
      for _ = 1 to per_worker do
        Obs.incr c_test
      done;
      Array.iter Domain.join workers;
      let snap = Obs.snapshot () in
      done_ ();
      Alcotest.(check int)
        (Printf.sprintf "total over %d domains" domains)
        (domains * per_worker)
        (Obs.counter_value snap "test.counter");
      match List.assoc_opt "test.counter" snap.Obs.per_domain with
      | None -> Alcotest.fail "no per-domain breakdown"
      | Some parts ->
          Alcotest.(check int)
            (Printf.sprintf "%d contributing domains" domains)
            domains (List.length parts);
          Alcotest.(check int)
            "per-domain parts re-sum to the total" (domains * per_worker)
            (List.fold_left (fun acc (_, v) -> acc + v) 0 parts))
    [ 1; 2; 4 ]

(* Gauges merge by max, histograms bucket-wise — both independent of
   which domain saw which observation. *)
let test_gauge_histogram_merge () =
  List.iter
    (fun domains ->
      fresh ();
      let observe d =
        Obs.gauge_max g_test (10 * (d + 1));
        (* one observation per bucket 1..4: v = 1, 2, 4, 8 *)
        List.iter (Obs.observe h_test) [ 1; 2; 4; 8 ]
      in
      let workers =
        Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> observe (i + 1)))
      in
      observe 0;
      Array.iter Domain.join workers;
      let snap = Obs.snapshot () in
      done_ ();
      Alcotest.(check (list (pair string int)))
        "gauge = max over domains"
        [ ("test.gauge", 10 * domains) ]
        snap.Obs.gauges;
      match List.assoc_opt "test.hist" snap.Obs.histograms with
      | None -> Alcotest.fail "no histogram"
      | Some buckets ->
          Alcotest.(check (list (pair int int)))
            "buckets summed across domains"
            [ (1, domains); (3, domains); (7, domains); (15, domains) ]
            buckets)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

let spin_ns ns =
  let t0 = Obs.now_ns () in
  while Obs.now_ns () - t0 < ns do
    ()
  done

let test_span_nesting () =
  fresh ~trace:true ();
  let v =
    Obs.time s_outer (fun () ->
        Obs.time ~index:0 s_inner (fun () -> spin_ns 200_000);
        Obs.time ~index:1 s_inner (fun () -> spin_ns 200_000);
        42)
  in
  let snap = Obs.snapshot () in
  let doc = Obs.trace_document () in
  done_ ();
  Alcotest.(check int) "time returns the body's value" 42 v;
  let stat name =
    match List.assoc_opt name snap.Obs.spans with
    | Some s -> s
    | None -> Alcotest.fail ("span missing: " ^ name)
  in
  let outer = stat "test.outer" and inner = stat "test.inner" in
  Alcotest.(check int) "outer calls" 1 outer.Obs.calls;
  Alcotest.(check int) "inner calls" 2 inner.Obs.calls;
  Alcotest.(check bool) "inner time is contained in outer time" true
    (inner.Obs.total_ns <= outer.Obs.total_ns);
  match Obs.Json.member "traceEvents" doc with
  | Some (Obs.Json.List evs) ->
      Alcotest.(check int) "one trace event per span execution" 3
        (List.length evs)
  | _ -> Alcotest.fail "trace document lacks traceEvents"

let test_span_exception_safe () =
  fresh ();
  (try Obs.time s_outer (fun () -> failwith "boom") with Failure _ -> ());
  let snap = Obs.snapshot () in
  done_ ();
  match List.assoc_opt "test.outer" snap.Obs.spans with
  | Some s -> Alcotest.(check int) "call recorded despite raise" 1 s.Obs.calls
  | None -> Alcotest.fail "span missing after exception"

(* ------------------------------------------------------------------ *)
(* disabled mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  Obs.incr c_test;
  Obs.add c_test 17;
  Obs.gauge_max g_test 99;
  Obs.observe h_test 5;
  Alcotest.(check int)
    "time still runs the body" 7
    (Obs.time s_outer (fun () -> 7));
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "no counters" true (snap.Obs.counters = []);
  Alcotest.(check bool) "no gauges" true (snap.Obs.gauges = []);
  Alcotest.(check bool) "no histograms" true (snap.Obs.histograms = []);
  Alcotest.(check bool) "no spans" true (snap.Obs.spans = []);
  Alcotest.(check int) "counter_value reads 0" 0
    (Obs.counter_value snap "test.counter");
  match Obs.Json.member "traceEvents" (Obs.trace_document ()) with
  | Some (Obs.Json.List []) -> ()
  | _ -> Alcotest.fail "disabled run left trace events behind"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Obs.Json in
  let samples =
    [
      Null;
      Bool true;
      Int (-42);
      Int max_int;
      Float 1.5;
      Float (-0.25);
      String "plain";
      String "esc \" \\ \n \t \x07 caf\xc3\xa9";
      List [];
      Obj [];
      Obj
        [
          ("a", List [ Int 1; Float 2.5; Null; Bool false ]);
          ("nested", Obj [ ("k", String "v"); ("l", List [ Obj [] ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = to_string v in
      match of_string s with
      | Ok v' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %s" s)
            true (equal v v')
      | Error e -> Alcotest.fail (Printf.sprintf "parse %s: %s" s e))
    samples;
  (match of_string "{\"a\": [1, 2.0e1, true], \"b\":null}" with
  | Ok
      (Obj [ ("a", List [ Int 1; Float 20.0; Bool true ]); ("b", Null) ]) ->
      ()
  | Ok j -> Alcotest.fail ("unexpected parse: " ^ to_string j)
  | Error e -> Alcotest.fail e);
  match of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON"

(* A real trace must render to JSON that the bundled parser reads back
   identically. *)
let test_emitted_json_parses () =
  fresh ~trace:true ();
  Obs.time s_outer (fun () -> Obs.time ~index:7 s_inner (fun () -> ()));
  let doc = Obs.trace_document () in
  done_ ();
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Ok doc' ->
      Alcotest.(check bool) "trace round-trips" true (Obs.Json.equal doc doc')
  | Error e -> Alcotest.fail ("trace: " ^ e)

(* ------------------------------------------------------------------ *)
(* regression: Obs counters == Optimal.stats, results unchanged        *)
(* ------------------------------------------------------------------ *)

let disc = Dkibam.Discretization.paper_b1

let arrays name =
  Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01
    (Loads.Testloads.load name)

(* Two Table 5 loads, serial search: the counters the CLI prints must
   equal the [stats] record the library returns, and enabling
   observability must not change the search result at all. *)
let test_optimal_stats_match () =
  List.iter
    (fun name ->
      let a = arrays name in
      Obs.disable ();
      Obs.reset ();
      let plain = Sched.Optimal.search ~n_batteries:2 disc a in
      fresh ();
      let r = Sched.Optimal.search ~n_batteries:2 disc a in
      let snap = Obs.snapshot () in
      done_ ();
      let label = Loads.Testloads.to_string name in
      Alcotest.(check int)
        (label ^ ": lifetime identical with obs on")
        plain.Sched.Optimal.lifetime_steps r.Sched.Optimal.lifetime_steps;
      Alcotest.(check (array int))
        (label ^ ": schedule identical with obs on")
        plain.Sched.Optimal.schedule r.Sched.Optimal.schedule;
      let stats = r.Sched.Optimal.stats in
      Alcotest.(check int)
        (label ^ ": optimal.positions = stats.positions_explored")
        stats.Sched.Optimal.positions_explored
        (Obs.counter_value snap "optimal.positions");
      Alcotest.(check int)
        (label ^ ": optimal.segments = stats.segments_run")
        stats.Sched.Optimal.segments_run
        (Obs.counter_value snap "optimal.segments");
      Alcotest.(check int)
        (label ^ ": optimal.memo_hits = stats.pruned")
        stats.Sched.Optimal.pruned
        (Obs.counter_value snap "optimal.memo_hits");
      Alcotest.(check int)
        (label ^ ": optimal.bound_cuts = stats.bound_cuts")
        stats.Sched.Optimal.bound_cuts
        (Obs.counter_value snap "optimal.bound_cuts");
      Alcotest.(check int)
        (label ^ ": one search recorded")
        1
        (Obs.counter_value snap "optimal.searches"))
    [ Loads.Testloads.ILs_alt; Loads.Testloads.ILs_r1 ]

let () =
  Alcotest.run "obs"
    [
      ( "merge",
        [
          Alcotest.test_case "counter merge 1/2/4 domains" `Quick
            test_counter_merge;
          Alcotest.test_case "gauge and histogram merge" `Quick
            test_gauge_histogram_merge;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and trace events" `Quick
            test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safe;
        ] );
      ( "disabled",
        [ Alcotest.test_case "true no-op" `Quick test_disabled_noop ] );
      ( "json",
        [
          Alcotest.test_case "constructor round-trips" `Quick
            test_json_roundtrip;
          Alcotest.test_case "emitted documents parse back" `Quick
            test_emitted_json_parses;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "stats record = Obs counters (Table 5)"
            `Quick test_optimal_stats_match;
        ] );
    ]
