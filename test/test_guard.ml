(* Tests for the resilience layer: budget/cancel/chaos/checkpoint units,
   fault-injected pools (retries, determinism, no leaked domains), and
   the budget-aware search APIs — ample-budget bit-identity, anytime
   degradation floors, checkpoint trip-then-resume equality. *)

let disc = Dkibam.Discretization.paper_b1
let arrays name = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 (Loads.Testloads.load name)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let trip_testable =
  Alcotest.testable
    (fun ppf t -> Guard.Budget.pp_trip ppf t)
    (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_unlimited_never_trips () =
  let b = Guard.Budget.unlimited () in
  check_bool "is_limited" false (Guard.Budget.is_limited b);
  Guard.Budget.charge_segments b 1_000_000;
  Guard.Budget.note_positions b 1_000_000;
  Guard.Budget.note_frontier b 1_000_000;
  Guard.Budget.check_exn b;
  Alcotest.(check (option trip_testable)) "not tripped" None (Guard.Budget.tripped b);
  check_int "segments counted" 1_000_000 (Guard.Budget.segments b)

let test_budget_segment_cap () =
  let b = Guard.Budget.create ~max_segments:100 () in
  check_bool "is_limited" true (Guard.Budget.is_limited b);
  Guard.Budget.charge_segments b 99;
  Alcotest.(check (option trip_testable)) "under cap" None (Guard.Budget.tripped b);
  Guard.Budget.charge_segments b 1;
  Alcotest.(check (option trip_testable))
    "at cap" (Some Guard.Budget.Segments) (Guard.Budget.tripped b);
  (try
     Guard.Budget.check_exn b;
     Alcotest.fail "check_exn did not raise"
   with Guard.Budget.Tripped Guard.Budget.Segments -> ());
  check_bool "token cancelled by trip" true
    (Guard.Cancel.is_set (Guard.Budget.cancel_token b))

let test_budget_position_and_frontier_caps () =
  let b = Guard.Budget.create ~max_positions:10 () in
  Guard.Budget.note_positions b 9;
  Alcotest.(check (option trip_testable)) "under" None (Guard.Budget.tripped b);
  Guard.Budget.note_positions b 1;
  Alcotest.(check (option trip_testable))
    "positions" (Some Guard.Budget.Positions) (Guard.Budget.tripped b);
  let f = Guard.Budget.create ~max_frontier:5 () in
  Guard.Budget.note_frontier f 5;
  Alcotest.(check (option trip_testable)) "frontier at cap" None (Guard.Budget.tripped f);
  Guard.Budget.note_frontier f 6;
  Alcotest.(check (option trip_testable))
    "frontier" (Some Guard.Budget.Frontier) (Guard.Budget.tripped f)

let test_budget_deadline () =
  (* the deadline is polled on a stride: keep charging until the trip
     latches (bounded by the iteration cap, not wall clock) *)
  let b = Guard.Budget.create ~deadline_s:0.005 () in
  let tripped = ref false in
  (try
     (* ~50ms ceiling: plenty for a 5ms deadline, bounded regardless *)
     for _ = 1 to 50 do
       Unix.sleepf 0.001;
       for _ = 1 to 128 do
         Guard.Budget.charge_segment_exn b
       done
     done
   with Guard.Budget.Tripped Guard.Budget.Deadline -> tripped := true);
  check_bool "deadline tripped" true !tripped

let test_budget_cancel_latches () =
  let b = Guard.Budget.unlimited () in
  Guard.Cancel.cancel (Guard.Budget.cancel_token b);
  (try
     Guard.Budget.check_exn b;
     Alcotest.fail "check_exn did not raise"
   with Guard.Budget.Tripped Guard.Budget.Cancelled -> ());
  Alcotest.(check (option trip_testable))
    "latched" (Some Guard.Budget.Cancelled) (Guard.Budget.tripped b)

let test_budget_trip_first_writer_wins () =
  let b = Guard.Budget.unlimited () in
  Guard.Budget.trip b Guard.Budget.Segments;
  Guard.Budget.trip b Guard.Budget.Frontier;
  Alcotest.(check (option trip_testable))
    "first wins" (Some Guard.Budget.Segments) (Guard.Budget.tripped b)

(* The cross-domain trip contract: two domains hammering one shared
   budget each observe the trip exactly once from their charging loop
   (the latch is never lost), the latch stays sticky for later checks,
   and no charge is lost or double-counted — [segments] equals the sum
   both domains charged, which can overshoot the cap by at most the two
   in-flight charges. *)
let test_budget_concurrent_trippers () =
  let cap = 1_000 in
  let b = Guard.Budget.create ~max_segments:cap () in
  let gate = Atomic.make 0 in
  let worker () =
    Atomic.incr gate;
    while Atomic.get gate < 2 do
      Domain.cpu_relax ()
    done;
    let charged = ref 0 in
    let loop_trips = ref 0 in
    (try
       while true do
         Guard.Budget.charge_segments b 1;
         incr charged;
         Guard.Budget.check_exn b
       done
     with Guard.Budget.Tripped Guard.Budget.Segments -> incr loop_trips);
    let sticky =
      match Guard.Budget.check_exn b with
      | () -> false
      | exception Guard.Budget.Tripped Guard.Budget.Segments -> true
    in
    (!loop_trips, !charged, sticky)
  in
  let d = Domain.spawn worker in
  let trips_a, charged_a, sticky_a = worker () in
  let trips_b, charged_b, sticky_b = Domain.join d in
  check_int "domain A observed the trip exactly once" 1 trips_a;
  check_int "domain B observed the trip exactly once" 1 trips_b;
  check_bool "latch sticky for A" true sticky_a;
  check_bool "latch sticky for B" true sticky_b;
  Alcotest.(check (option trip_testable))
    "tripped on the segment cap" (Some Guard.Budget.Segments)
    (Guard.Budget.tripped b);
  let total = charged_a + charged_b in
  check_int "no charge lost or double-counted" total (Guard.Budget.segments b);
  check_bool "stopped at the cap (max one in-flight charge per domain)" true
    (total >= cap && total <= cap + 2)

let test_budget_create_validation () =
  List.iter
    (fun f ->
      try
        ignore (f ());
        Alcotest.fail "create accepted a bad bound"
      with Invalid_argument _ -> ())
    [
      (fun () -> Guard.Budget.create ~deadline_s:0.0 ());
      (fun () -> Guard.Budget.create ~deadline_s:(-1.0) ());
      (fun () -> Guard.Budget.create ~max_segments:0 ());
      (fun () -> Guard.Budget.create ~max_positions:(-3) ());
      (fun () -> Guard.Budget.create ~max_frontier:0 ());
    ]

(* ------------------------------------------------------------------ *)
(* Cancel                                                              *)
(* ------------------------------------------------------------------ *)

let test_cancel_token () =
  let c = Guard.Cancel.create () in
  check_bool "fresh" false (Guard.Cancel.is_set c);
  Guard.Cancel.check_exn c;
  Guard.Cancel.cancel c;
  Guard.Cancel.cancel c;
  check_bool "set" true (Guard.Cancel.is_set c);
  try
    Guard.Cancel.check_exn c;
    Alcotest.fail "check_exn did not raise"
  with Guard.Cancel.Cancelled -> ()

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let crash_pattern ~seed n =
  let chaos = Guard.Chaos.create ~crash_prob:0.3 ~seed () in
  let pat =
    List.init n (fun _ ->
        match Guard.Chaos.maybe_crash chaos with
        | () -> false
        | exception Guard.Chaos.Injected_crash _ -> true)
  in
  (pat, Guard.Chaos.crashes chaos)

let test_chaos_deterministic () =
  let p1, c1 = crash_pattern ~seed:7L 200 in
  let p2, c2 = crash_pattern ~seed:7L 200 in
  Alcotest.(check (list bool)) "same seed, same faults" p1 p2;
  check_int "same count" c1 c2;
  check_int "count matches pattern" c1 (List.length (List.filter Fun.id p1));
  check_bool "faults actually injected" true (c1 > 0);
  let p3, _ = crash_pattern ~seed:8L 200 in
  check_bool "different seed, different faults" true (p1 <> p3)

let test_chaos_perturbations () =
  let chaos = Guard.Chaos.create ~seed:42L () in
  for _ = 1 to 500 do
    let x = Guard.Chaos.perturb_float chaos ~rel:0.1 10.0 in
    if x < 9.0 -. 1e-9 || x > 11.0 +. 1e-9 then
      Alcotest.failf "perturb_float out of band: %g" x
  done;
  for _ = 1 to 500 do
    let k = Guard.Chaos.perturb_int chaos ~rel:0.5 ~min:3 4 in
    if k < 3 || k > 6 then Alcotest.failf "perturb_int out of band: %d" k
  done

let test_chaos_seed_from_env () =
  let var = "CHAOS_SEED_TEST_GUARD" in
  Unix.putenv var "12345";
  Alcotest.(check int64)
    "explicit" 12345L
    (Guard.Chaos.seed_from_env ~var ~default:1L ());
  Alcotest.(check int64)
    "default when unset" 99L
    (Guard.Chaos.seed_from_env ~var:"CHAOS_SEED_TEST_GUARD_UNSET" ~default:99L ());
  Unix.putenv var "not-a-seed";
  try
    ignore (Guard.Chaos.seed_from_env ~var ~default:1L ());
    Alcotest.fail "malformed seed accepted"
  with Guard.Error.Error e ->
    Alcotest.(check string) "subsystem" "guard.chaos" e.Guard.Error.subsystem

(* ------------------------------------------------------------------ *)
(* Error                                                               *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_error_to_string () =
  let e =
    Guard.Error.make ~subsystem:"loads.spec" ~input:"job -3 x" ~field:"duration"
      ~value:"-3" ~accepted:"a positive number of minutes"
      "job duration must be positive"
  in
  let s = Guard.Error.to_string e in
  List.iter
    (fun needle ->
      if not (contains s needle) then Alcotest.failf "missing %S in %S" needle s)
    [ "loads.spec"; "job duration must be positive"; "duration"; "-3";
      "a positive number of minutes"; "job -3 x" ]

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "guard_test" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_checkpoint_write_atomic () =
  with_temp (fun path ->
      Guard.Checkpoint.write_atomic ~path "first";
      Guard.Checkpoint.write_atomic ~path "second contents";
      let got = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "last write wins" "second contents" got)

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      let payload = String.init 1024 (fun i -> Char.chr (i mod 251)) in
      Guard.Checkpoint.save ~path ~magic:"test.magic" ~fingerprint:"abc123" payload;
      match Guard.Checkpoint.load ~path ~magic:"test.magic" ~fingerprint:"abc123" with
      | Ok got -> Alcotest.(check string) "payload" payload got
      | Error _ -> Alcotest.fail "roundtrip failed")

let test_checkpoint_missing () =
  match
    Guard.Checkpoint.load ~path:"/nonexistent/guard_test.ckpt" ~magic:"m"
      ~fingerprint:"f"
  with
  | Error Guard.Checkpoint.Missing -> ()
  | Ok _ | Error (Guard.Checkpoint.Bad _) -> Alcotest.fail "expected Missing"

let expect_bad = function
  | Error (Guard.Checkpoint.Bad _) -> ()
  | Ok _ -> Alcotest.fail "bad snapshot accepted"
  | Error Guard.Checkpoint.Missing -> Alcotest.fail "reported Missing"

let test_checkpoint_rejections () =
  with_temp (fun path ->
      Guard.Checkpoint.save ~path ~magic:"test.magic" ~fingerprint:"abc" "payload";
      (* wrong magic / wrong fingerprint *)
      expect_bad (Guard.Checkpoint.load ~path ~magic:"other" ~fingerprint:"abc");
      expect_bad (Guard.Checkpoint.load ~path ~magic:"test.magic" ~fingerprint:"xyz");
      (* truncation *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      Guard.Checkpoint.write_atomic ~path (String.sub full 0 (String.length full - 3));
      expect_bad (Guard.Checkpoint.load ~path ~magic:"test.magic" ~fingerprint:"abc");
      (* payload corruption caught by the checksum *)
      let corrupt = Bytes.of_string full in
      let last = Bytes.length corrupt - 1 in
      Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
      Guard.Checkpoint.write_atomic ~path (Bytes.to_string corrupt);
      expect_bad (Guard.Checkpoint.load ~path ~magic:"test.magic" ~fingerprint:"abc"))

let test_checkpoint_frame_validation () =
  List.iter
    (fun f ->
      try
        f ();
        Alcotest.fail "space in frame field accepted"
      with Invalid_argument _ -> ())
    [
      (fun () -> Guard.Checkpoint.save ~path:"/tmp/x" ~magic:"bad magic" ~fingerprint:"f" "p");
      (fun () -> Guard.Checkpoint.save ~path:"/tmp/x" ~magic:"m" ~fingerprint:"bad fp" "p");
    ]

(* Exhaustive kill-mid-write simulation: every strict prefix of a valid
   frame — as a torn write at any byte would leave it — must come back
   as a structured refusal, never an exception and never a bogus [Ok].
   (The daemon's cache durability contract leans on this: an atomic
   rename makes torn files unreachable in practice, but the loader must
   hold on its own.) *)
let test_checkpoint_truncated_prefixes () =
  with_temp (fun path ->
      let payload = String.init 512 (fun i -> Char.chr (i mod 251)) in
      Guard.Checkpoint.save ~path ~magic:"test.magic" ~fingerprint:"abc" payload;
      let full = In_channel.with_open_bin path In_channel.input_all in
      for keep = 0 to String.length full - 1 do
        Guard.Checkpoint.write_atomic ~path (String.sub full 0 keep);
        match
          Guard.Checkpoint.load ~path ~magic:"test.magic" ~fingerprint:"abc"
        with
        | Error (Guard.Checkpoint.Bad _) -> ()
        | Ok _ ->
            Alcotest.failf "prefix of %d/%d bytes accepted" keep
              (String.length full)
        | Error Guard.Checkpoint.Missing ->
            Alcotest.failf "prefix of %d bytes reported Missing" keep
        | exception e ->
            Alcotest.failf "prefix of %d bytes raised %s" keep
              (Printexc.to_string e)
      done;
      (* the untruncated frame still loads *)
      Guard.Checkpoint.write_atomic ~path full;
      match
        Guard.Checkpoint.load ~path ~magic:"test.magic" ~fingerprint:"abc"
      with
      | Ok got -> Alcotest.(check string) "full frame intact" payload got
      | Error _ -> Alcotest.fail "full frame refused")

(* ------------------------------------------------------------------ *)
(* Pool under fault injection                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_chaos_retries_deterministic () =
  (* injected crashes are retried; results stay bit-identical to the
     serial path, on every domain count *)
  let expected = Array.init 200 (fun i -> i * i) in
  List.iter
    (fun domains ->
      let chaos = Guard.Chaos.create ~crash_prob:0.2 ~delay_prob:0.1 ~max_delay_us:50 ~seed:11L () in
      Exec.Pool.with_pool ~domains ~chaos ~retries:50 (fun pool ->
          for round = 1 to 3 do
            let got = Exec.Pool.parallel_init pool 200 (fun i -> i * i) in
            Alcotest.(check (array int))
              (Printf.sprintf "domains=%d round=%d" domains round)
              expected got
          done);
      check_bool
        (Printf.sprintf "faults injected (domains=%d)" domains)
        true
        (Guard.Chaos.crashes chaos > 0))
    [ 1; 2; 4 ]

let test_pool_chaos_exhausted_retries_propagate () =
  (* crash_prob 1 with retries 0: the injected crash must surface, not
     hang or be silently swallowed *)
  let chaos = Guard.Chaos.create ~crash_prob:1.0 ~seed:3L () in
  Exec.Pool.with_pool ~domains:2 ~chaos ~retries:0 (fun pool ->
      try
        ignore (Exec.Pool.parallel_init pool 8 Fun.id);
        Alcotest.fail "injected crash did not propagate"
      with Guard.Chaos.Injected_crash _ -> ())

let test_pool_no_domain_leak_under_chaos () =
  (* repeated chaotic pool lifecycles must not leak domains: every
     with_pool joins its workers, so this loop terminates and the
     process keeps a bounded domain count *)
  for round = 1 to 8 do
    let chaos = Guard.Chaos.create ~crash_prob:0.5 ~seed:(Int64.of_int round) () in
    Exec.Pool.with_pool ~domains:3 ~chaos ~retries:100 (fun pool ->
        let got = Exec.Pool.parallel_init pool 50 (fun i -> i + round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 50 (fun i -> i + round))
          got)
  done

let test_pool_cancellation () =
  let cancel = Guard.Cancel.create () in
  Guard.Cancel.cancel cancel;
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      try
        ignore (Exec.Pool.parallel_init ~cancel pool 100 Fun.id);
        Alcotest.fail "cancelled batch returned results"
      with Guard.Cancel.Cancelled -> ())

(* ------------------------------------------------------------------ *)
(* Optimal search: budgets, anytime results, checkpoints               *)
(* ------------------------------------------------------------------ *)

let check_status what expected (r : Sched.Optimal.result) =
  match (expected, r.Sched.Optimal.status) with
  | `Optimal, Sched.Optimal.Optimal -> ()
  | `Exhausted, Sched.Optimal.Budget_exhausted _ -> ()
  | `Optimal, Sched.Optimal.Budget_exhausted _ -> Alcotest.failf "%s: unexpectedly exhausted" what
  | `Exhausted, Sched.Optimal.Optimal -> Alcotest.failf "%s: unexpectedly optimal" what

let test_optimal_ample_budget_bit_identical () =
  (* a limited-but-ample budget must not change a single bit of the
     result, on all ten Table 5 loads *)
  List.iter
    (fun name ->
      let a = arrays name in
      let plain = Sched.Optimal.search ~n_batteries:2 disc a in
      let budget =
        Guard.Budget.create ~deadline_s:3600.0 ~max_segments:1_000_000_000
          ~max_positions:1_000_000_000 ()
      in
      let budgeted = Sched.Optimal.search ~budget ~n_batteries:2 disc a in
      let label = Loads.Testloads.to_string name in
      check_status label `Optimal budgeted;
      Answers.check_search ~work:true
        (Printf.sprintf "search B1 %s max-lifetime %s" label
           (Answers.bounds_tag (Answers.default_bounds ())))
        budgeted;
      check_int (label ^ " lifetime") plain.lifetime_steps budgeted.lifetime_steps;
      check_int (label ^ " stranded") plain.stranded_units budgeted.stranded_units;
      Alcotest.(check (array int)) (label ^ " schedule") plain.schedule budgeted.schedule;
      check_int (label ^ " positions") plain.stats.positions_explored
        budgeted.stats.positions_explored;
      check_int (label ^ " segments") plain.stats.segments_run budgeted.stats.segments_run)
    Loads.Testloads.all_names

let best_of_steps a =
  let o = Sched.Simulator.simulate ~n_batteries:2 ~policy:Sched.Policy.Best_of disc a in
  match o.Sched.Simulator.lifetime_steps with
  | Some s -> s
  | None -> Alcotest.fail "best-of survived the load"

let test_optimal_tight_budget_anytime () =
  (* a starved search must not raise: it returns a feasible schedule at
     least as good as the best-of-two floor, flagged Budget_exhausted.
     A load whose full search happens to fit the cap legitimately stays
     Optimal — then it must match the unbudgeted result instead. *)
  let exhausted_seen = ref 0 in
  List.iter
    (fun max_segments ->
      List.iter
        (fun name ->
          let a = arrays name in
          let budget = Guard.Budget.create ~max_segments () in
          let r = Sched.Optimal.search ~budget ~n_batteries:2 disc a in
          let label =
            Printf.sprintf "%s (max_segments=%d)" (Loads.Testloads.to_string name)
              max_segments
          in
          (* which branches complete under the cap depends on the bound
             mode, so the frozen answer is looked up under the mode run *)
          Answers.check_search ~work:true
            (Printf.sprintf "budget %s max-segments=%d %s"
               (Loads.Testloads.to_string name)
               max_segments
               (Answers.bounds_tag (Answers.default_bounds ())))
            r;
          (match r.Sched.Optimal.status with
          | Sched.Optimal.Optimal ->
              let plain = Sched.Optimal.search ~n_batteries:2 disc a in
              check_int (label ^ " untripped = unbudgeted") plain.lifetime_steps
                r.lifetime_steps
          | Sched.Optimal.Budget_exhausted _ ->
              incr exhausted_seen;
              let floor = best_of_steps a in
              if r.lifetime_steps < floor then
                Alcotest.failf "%s: anytime %d below best-of floor %d" label
                  r.lifetime_steps floor);
          (* feasibility: the schedule replays to the claimed lifetime
             through the simulator, anytime or not *)
          let replay =
            Sched.Simulator.simulate ~n_batteries:2
              ~policy:(Sched.Policy.Fixed r.schedule) disc a
          in
          match replay.Sched.Simulator.lifetime_steps with
          | Some s when s = r.lifetime_steps -> ()
          | Some s -> Alcotest.failf "%s: claims %d steps, replays %d" label r.lifetime_steps s
          | None -> Alcotest.failf "%s: anytime schedule survived on replay" label)
        [ Loads.Testloads.CL_alt; ILs_alt; ILs_r1; ILl_500 ])
    [ 1; 5; 50; 500 ];
  check_bool "tight budgets did trip" true (!exhausted_seen >= 8)

let test_optimal_budget_shared_with_pool () =
  (* pooled search under a tripping budget still returns an anytime
     result (the trip cancels sibling branches), and an ample budget
     stays bit-identical to serial *)
  let a = arrays Loads.Testloads.ILs_alt in
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let plain = Sched.Optimal.search ~n_batteries:2 disc a in
      let ample = Guard.Budget.create ~deadline_s:3600.0 () in
      let r = Sched.Optimal.search ~pool ~budget:ample ~n_batteries:2 disc a in
      check_status "ample pooled" `Optimal r;
      check_int "pooled lifetime" plain.lifetime_steps r.lifetime_steps;
      Alcotest.(check (array int)) "pooled schedule" plain.schedule r.schedule;
      let tight = Guard.Budget.create ~max_segments:5 () in
      let r = Sched.Optimal.search ~pool ~budget:tight ~n_batteries:2 disc a in
      check_status "tight pooled" `Exhausted r;
      if r.lifetime_steps < best_of_steps a then
        Alcotest.fail "pooled anytime below best-of floor")

let test_optimal_checkpoint_trip_then_resume () =
  (* kill a search mid-flight via a budget, then resume from its
     snapshot without a budget: bit-identical to an uninterrupted run *)
  with_temp (fun path ->
      Sys.remove path;
      let a = arrays Loads.Testloads.ILs_r1 in
      let plain = Sched.Optimal.search ~n_batteries:2 disc a in
      let budget = Guard.Budget.create ~max_segments:60 () in
      let ck = Sched.Optimal.checkpoint ~every_segments:1 path in
      let partial = Sched.Optimal.search ~budget ~checkpoint:ck ~n_batteries:2 disc a in
      check_status "interrupted" `Exhausted partial;
      check_bool "snapshot written" true (Sys.file_exists path);
      let resume = Sched.Optimal.checkpoint ~every_segments:1 ~resume:true path in
      let resumed = Sched.Optimal.search ~checkpoint:resume ~n_batteries:2 disc a in
      check_status "resumed" `Optimal resumed;
      check_int "lifetime" plain.lifetime_steps resumed.lifetime_steps;
      check_int "stranded" plain.stranded_units resumed.stranded_units;
      Alcotest.(check (array int)) "schedule" plain.schedule resumed.schedule;
      (* the preload converts misses into hits: the resumed process did
         strictly less simulation work *)
      check_bool "resume reuses work" true
        (resumed.stats.segments_run < plain.stats.segments_run))

let test_optimal_resume_fingerprint_mismatch () =
  (* a snapshot from different search inputs must be refused loudly *)
  with_temp (fun path ->
      Sys.remove path;
      let a = arrays Loads.Testloads.ILs_alt in
      let ck = Sched.Optimal.checkpoint path in
      ignore (Sched.Optimal.search ~checkpoint:ck ~n_batteries:2 disc a);
      check_bool "snapshot written" true (Sys.file_exists path);
      let resume = Sched.Optimal.checkpoint ~resume:true path in
      try
        ignore
          (Sched.Optimal.search ~checkpoint:resume ~n_batteries:2
             Dkibam.Discretization.paper_b2 a);
        Alcotest.fail "mismatched snapshot accepted"
      with Guard.Error.Error e ->
        Alcotest.(check string) "subsystem" "guard.checkpoint" e.Guard.Error.subsystem)

let test_optimal_checkpoint_cross_bounds_resume () =
  (* memo entries are exact subtree values in both bound modes, so a
     snapshot written with bounds on resumes soundly with bounds off
     and vice versa — and a budget-tripped bounded search resumes to
     the bit-identical optimum *)
  with_temp (fun path ->
      let a = arrays Loads.Testloads.ILs_r1 in
      let plain = Sched.Optimal.search ~n_batteries:2 disc a in
      List.iter
        (fun (write_bounds, resume_bounds) ->
          if Sys.file_exists path then Sys.remove path;
          let budget = Guard.Budget.create ~max_segments:60 () in
          let ck = Sched.Optimal.checkpoint ~every_segments:1 path in
          let partial =
            Sched.Optimal.search ~budget ~checkpoint:ck ~bounds:write_bounds
              ~n_batteries:2 disc a
          in
          check_status "interrupted" `Exhausted partial;
          check_bool "snapshot written" true (Sys.file_exists path);
          let resume =
            Sched.Optimal.checkpoint ~every_segments:1 ~resume:true path
          in
          let resumed =
            Sched.Optimal.search ~checkpoint:resume ~bounds:resume_bounds
              ~n_batteries:2 disc a
          in
          check_status "resumed" `Optimal resumed;
          check_int "lifetime" plain.lifetime_steps resumed.lifetime_steps;
          check_int "stranded" plain.stranded_units resumed.stranded_units;
          Alcotest.(check (array int)) "schedule" plain.schedule resumed.schedule)
        [ (true, true); (true, false); (false, true) ])

let test_optimal_resume_v1_magic_refused () =
  (* a pre-bounds (v1) snapshot has a different payload shape; it must
     be refused by magic, not misread *)
  with_temp (fun path ->
      Sys.remove path;
      let a = arrays Loads.Testloads.ILs_alt in
      Guard.Checkpoint.save ~path ~magic:"sched.optimal.memo"
        ~fingerprint:"whatever"
        (Marshal.to_string [| (0, 0) |] []);
      let resume = Sched.Optimal.checkpoint ~resume:true path in
      try
        ignore (Sched.Optimal.search ~checkpoint:resume ~n_batteries:2 disc a);
        Alcotest.fail "v1 snapshot accepted"
      with Guard.Error.Error e ->
        Alcotest.(check string) "subsystem" "guard.checkpoint"
          e.Guard.Error.subsystem)

(* ------------------------------------------------------------------ *)
(* Reachability under budgets                                          *)
(* ------------------------------------------------------------------ *)

(* the Figure 2 lamp: press twice quickly to reach [bright] *)
let lamp_net () =
  let open Pta.Automaton in
  let lamp =
    make ~name:"lamp" ~clocks:[ "y" ]
      ~locations:[ location "off"; location "low"; location "bright" ]
      ~initial:"off"
      ~edges:
        [
          edge ~src:"off" ~dst:"low" ~sync:(Recv ("press", None)) ~resets:[ "y" ] ();
          edge ~src:"low" ~dst:"off"
            ~guard:(guard_clock "y" Pta.Expr.Ge (Pta.Expr.i 5))
            ~sync:(Recv ("press", None)) ();
          edge ~src:"low" ~dst:"bright"
            ~guard:(guard_clock "y" Pta.Expr.Lt (Pta.Expr.i 5))
            ~sync:(Recv ("press", None)) ();
          edge ~src:"bright" ~dst:"off" ~sync:(Recv ("press", None)) ();
        ]
      ()
  in
  let user =
    make ~name:"user" ~locations:[ location "idle" ] ~initial:"idle"
      ~edges:[ edge ~src:"idle" ~dst:"idle" ~sync:(Send ("press", None)) () ]
      ()
  in
  Pta.Compiled.compile
    (Pta.Network.make ~channels:[ Pta.Network.chan "press" ] ~automata:[ lamp; user ] ())

let lamp_goal net =
  let lamp = Pta.Compiled.auto_index net "lamp" in
  let bright = Pta.Compiled.location_index net ~auto:"lamp" ~loc:"bright" in
  fun ~locs ~vars:_ -> locs.(lamp) = bright

let test_explore_found_and_exhausted () =
  let net = lamp_net () in
  let goal = lamp_goal net in
  (match Pta.Reachability.explore ~goal net with
  | Pta.Reachability.Found _ -> ()
  | Unreachable _ | Exhausted _ -> Alcotest.fail "bright should be reachable");
  (match
     Pta.Reachability.explore ~budget:(Guard.Budget.create ~max_segments:1 ()) ~goal net
   with
  | Pta.Reachability.Exhausted { trip = Guard.Budget.Segments; _ } -> ()
  | Exhausted { trip; _ } ->
      Alcotest.failf "wrong trip: %s" (Guard.Budget.trip_to_string trip)
  | Found _ | Unreachable _ -> Alcotest.fail "segment budget did not trip");
  match Pta.Reachability.explore ~max_states:1 ~goal net with
  | Pta.Reachability.Exhausted { trip = Guard.Budget.Positions; _ } -> ()
  | _ -> Alcotest.fail "max_states did not report as a Positions trip"

let test_search_compat_failure () =
  (* the legacy wrapper keeps its Failure contract for the state cap *)
  let net = lamp_net () in
  (* an unreachable goal forces full exploration past the 1-state cap *)
  let goal ~locs:_ ~vars:_ = false in
  try
    ignore (Pta.Reachability.search ~max_states:1 ~goal net);
    Alcotest.fail "state cap did not raise"
  with Failure _ -> ()

let test_reachability_prune () =
  let net = lamp_net () in
  let lamp = Pta.Compiled.auto_index net "lamp" in
  let bright = Pta.Compiled.location_index net ~auto:"lamp" ~loc:"bright" in
  let low = Pta.Compiled.location_index net ~auto:"lamp" ~loc:"low" in
  let goal = lamp_goal net in
  let nowhere ~locs:_ ~vars:_ = false in
  (* no prune, and a prune that never fires: identical Found answers,
     zero cuts *)
  (match Pta.Reachability.explore ~goal net with
  | Pta.Reachability.Found r ->
      check_int "no cuts without prune" 0 r.stats.bound_cuts
  | _ -> Alcotest.fail "bright should be reachable");
  (match Pta.Reachability.explore ~prune:nowhere ~goal net with
  | Pta.Reachability.Found r ->
      check_int "no cuts from a cold prune" 0 r.stats.bound_cuts
  | _ -> Alcotest.fail "cold prune changed the answer");
  (* against a goal that holds nowhere, every predicate is admissible:
     cutting the whole bright region must preserve the exact
     Unreachable answer, count its cuts, and shrink the passed list *)
  let full =
    match Pta.Reachability.explore ~goal:nowhere net with
    | Pta.Reachability.Unreachable s -> s
    | _ -> Alcotest.fail "false goal reached"
  in
  check_int "baseline cuts" 0 full.bound_cuts;
  (match
     Pta.Reachability.explore
       ~prune:(fun ~locs ~vars:_ -> locs.(lamp) = bright)
       ~goal:nowhere net
   with
  | Pta.Reachability.Unreachable s ->
      check_bool "cuts counted" true (s.bound_cuts > 0);
      check_bool "cut states not stored" true (s.stored < full.stored)
  | _ -> Alcotest.fail "admissible prune changed the answer");
  (* the documented caveat: an inadmissible predicate — cutting [low],
     which every path to [bright] crosses — degrades the search to
     sound-for-Found-only and reports Unreachable *)
  match
    Pta.Reachability.explore
      ~prune:(fun ~locs ~vars:_ -> locs.(lamp) = low)
      ~goal net
  with
  | Pta.Reachability.Unreachable s ->
      check_bool "inadmissible cuts counted" true (s.bound_cuts > 0)
  | _ -> Alcotest.fail "expected the pruned search to miss the goal"

(* ------------------------------------------------------------------ *)
(* Ensemble under budgets                                              *)
(* ------------------------------------------------------------------ *)

let test_ensemble_tiny_budget_completes () =
  let budget = Guard.Budget.create ~max_segments:3 () in
  let e =
    Sched.Ensemble.run ~budget ~n_loads:4 ~jobs_per_load:12 disc ()
  in
  check_bool "exhaustions counted" true (e.Sched.Ensemble.budget_exhausted > 0);
  check_bool "bounded by load count" true (e.Sched.Ensemble.budget_exhausted <= 4);
  (* the anytime optima still dominate the best-of floor in aggregate *)
  let mean name =
    match List.assoc_opt name e.Sched.Ensemble.per_policy with
    | Some s -> s.Sched.Ensemble.mean
    | None -> Alcotest.failf "missing %s stats" name
  in
  check_bool "anytime optimal >= best-of" true
    (mean "optimal" +. 1e-9 >= mean (Sched.Policy.name Sched.Policy.Best_of))

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited never trips" `Quick test_budget_unlimited_never_trips;
          Alcotest.test_case "segment cap" `Quick test_budget_segment_cap;
          Alcotest.test_case "position + frontier caps" `Quick
            test_budget_position_and_frontier_caps;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "external cancel" `Quick test_budget_cancel_latches;
          Alcotest.test_case "first trip wins" `Quick test_budget_trip_first_writer_wins;
          Alcotest.test_case "create validation" `Quick test_budget_create_validation;
          Alcotest.test_case "concurrent trippers" `Quick
            test_budget_concurrent_trippers;
        ] );
      ("cancel", [ Alcotest.test_case "latch semantics" `Quick test_cancel_token ]);
      ( "chaos",
        [
          Alcotest.test_case "seeded determinism" `Quick test_chaos_deterministic;
          Alcotest.test_case "perturbations in band" `Quick test_chaos_perturbations;
          Alcotest.test_case "seed from env" `Quick test_chaos_seed_from_env;
        ] );
      ("error", [ Alcotest.test_case "to_string carries context" `Quick test_error_to_string ]);
      ( "checkpoint",
        [
          Alcotest.test_case "write_atomic" `Quick test_checkpoint_write_atomic;
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "missing" `Quick test_checkpoint_missing;
          Alcotest.test_case "rejects stale/corrupt" `Quick test_checkpoint_rejections;
          Alcotest.test_case "frame validation" `Quick test_checkpoint_frame_validation;
          Alcotest.test_case "truncated prefixes refused" `Quick
            test_checkpoint_truncated_prefixes;
        ] );
      ( "pool chaos",
        [
          Alcotest.test_case "retries keep determinism" `Quick
            test_pool_chaos_retries_deterministic;
          Alcotest.test_case "exhausted retries propagate" `Quick
            test_pool_chaos_exhausted_retries_propagate;
          Alcotest.test_case "no domain leak" `Quick test_pool_no_domain_leak_under_chaos;
          Alcotest.test_case "cancellation" `Quick test_pool_cancellation;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "ample budget bit-identical" `Quick
            test_optimal_ample_budget_bit_identical;
          Alcotest.test_case "tight budget anytime" `Quick test_optimal_tight_budget_anytime;
          Alcotest.test_case "budget shared with pool" `Quick
            test_optimal_budget_shared_with_pool;
          Alcotest.test_case "checkpoint trip then resume" `Quick
            test_optimal_checkpoint_trip_then_resume;
          Alcotest.test_case "resume fingerprint mismatch" `Quick
            test_optimal_resume_fingerprint_mismatch;
          Alcotest.test_case "cross-bound-mode resume" `Quick
            test_optimal_checkpoint_cross_bounds_resume;
          Alcotest.test_case "v1 snapshot refused" `Quick
            test_optimal_resume_v1_magic_refused;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "explore outcomes" `Quick test_explore_found_and_exhausted;
          Alcotest.test_case "search compat" `Quick test_search_compat_failure;
          Alcotest.test_case "prune hook" `Quick test_reachability_prune;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "tiny budget completes" `Quick
            test_ensemble_tiny_budget_completes;
        ] );
    ]
