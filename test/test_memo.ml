(* Property and concurrency tests for Sched.Memo, the process-wide
   bounded exact-value store behind the daemon's multi-domain dispatch.

   The properties (randomized from CHAOS_SEED when set, so a CI failure
   reproduces locally with [CHAOS_SEED=... dune runtest]):
   - the store never exceeds its capacity, under any traffic, from any
     number of domains;
   - a memo hit is bit-identical to a fresh recompute: searches backed
     by a shared store — cold, warm, or thrashing under eviction —
     return exactly the lifetime, stranded charge and schedule of an
     unshared search;
   - eviction then re-query re-derives the same answer (eviction only
     forgets work, never correctness);
   - the atomic statistics are consistent once the store quiesces:
     lookups = hits + misses, entries = insertions - evictions;
   - scopes isolate: a key published under one fingerprint is
     invisible to every other;
   - only exact work is published: a search or plan a budget stops
     adds nothing to the store. *)

let chaos_seed = Guard.Chaos.seed_from_env ~default:20260808L ()
let gen salt = Prng.Splitmix.create (Int64.add chaos_seed salt)
let disc = Dkibam.Discretization.paper_b1
let enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load

(* the intermitted generator test_bound uses: long enough that two
   batteries always die inside the load, so the search never raises
   Load_too_short *)
let random_load g =
  let seed = Prng.Splitmix.next_int64 g in
  enc (Loads.Random_load.intermitted ~seed ~jobs:60 ())

let check_int = Alcotest.(check int)

let check_same_result what (a : Sched.Optimal.result) (b : Sched.Optimal.result)
    =
  check_int (what ^ ": lifetime") a.Sched.Optimal.lifetime_steps
    b.Sched.Optimal.lifetime_steps;
  check_int (what ^ ": stranded") a.Sched.Optimal.stranded_units
    b.Sched.Optimal.stranded_units;
  Alcotest.(check (array int))
    (what ^ ": schedule") a.Sched.Optimal.schedule b.Sched.Optimal.schedule

let stats_consistent what (m : Sched.Memo.t) =
  let s = Sched.Memo.stats m in
  check_int
    (what ^ ": lookups = hits + misses")
    s.Sched.Memo.st_lookups
    (s.Sched.Memo.st_hits + s.Sched.Memo.st_misses);
  check_int
    (what ^ ": entries = insertions - evictions")
    s.Sched.Memo.st_entries
    (s.Sched.Memo.st_insertions - s.Sched.Memo.st_evictions);
  if s.Sched.Memo.st_entries > s.Sched.Memo.st_capacity then
    Alcotest.failf "%s: %d entries exceed capacity %d" what
      s.Sched.Memo.st_entries s.Sched.Memo.st_capacity;
  s

(* ------------------------------------------------------------------ *)
(* Direct store properties                                             *)
(* ------------------------------------------------------------------ *)

let test_bound_never_exceeded () =
  let g = gen 11L in
  let capacity = 1 + Prng.Splitmix.int g 64 in
  let m = Sched.Memo.create ~capacity () in
  let scope = Sched.Memo.scope m ~fingerprint:"test" in
  for i = 0 to 4999 do
    let cells = [| Prng.Splitmix.int g 400; Prng.Splitmix.int g 400 |] in
    (match Sched.Memo.find scope cells with
    | Some _ -> ()
    | None -> Sched.Memo.add scope cells (cells.(0) + cells.(1)));
    let n = Sched.Memo.entries m in
    if n > capacity then
      Alcotest.failf "after op %d: %d entries exceed capacity %d" i n capacity
  done;
  ignore (stats_consistent "direct traffic" m : Sched.Memo.stats)

let test_hit_matches_insert () =
  (* every surviving entry still answers with the inserted value, and a
     re-query after eviction sees a clean miss, never a wrong value *)
  let g = gen 12L in
  let m = Sched.Memo.create ~capacity:16 () in
  let scope = Sched.Memo.scope m ~fingerprint:"test" in
  let value cells = (1000 * cells.(0)) + cells.(1) in
  for _ = 0 to 1999 do
    let cells = [| Prng.Splitmix.int g 40; Prng.Splitmix.int g 40 |] in
    match Sched.Memo.find scope cells with
    | Some v -> check_int "hit value" (value cells) v
    | None -> Sched.Memo.add scope cells (value cells)
  done

let test_scope_isolation () =
  let m = Sched.Memo.create ~capacity:16 () in
  let a = Sched.Memo.scope m ~fingerprint:"fp-a" in
  let b = Sched.Memo.scope m ~fingerprint:"fp-b" in
  Sched.Memo.add a [| 1; 2; 3 |] 42;
  (match Sched.Memo.find b [| 1; 2; 3 |] with
  | Some v -> Alcotest.failf "scope b sees scope a's entry (%d)" v
  | None -> ());
  (match Sched.Memo.find a [| 1; 2; 3 |] with
  | Some v -> check_int "scope a round-trip" 42 v
  | None -> Alcotest.fail "scope a lost its own entry");
  if not (Sched.Memo.scope_equal a (Sched.Memo.scope m ~fingerprint:"fp-a"))
  then Alcotest.fail "equal scopes compare unequal";
  if Sched.Memo.scope_equal a b then
    Alcotest.fail "distinct fingerprints compare equal";
  if
    Sched.Memo.scope_equal a
      (Sched.Memo.scope (Sched.Memo.create ~capacity:16 ()) ~fingerprint:"fp-a")
  then Alcotest.fail "scopes of distinct stores compare equal"

(* ------------------------------------------------------------------ *)
(* Shared-search bit-identity                                          *)
(* ------------------------------------------------------------------ *)

let test_shared_search_identical () =
  let g = gen 13L in
  let loads =
    List.init 4 (fun _ -> random_load g)
  in
  let m = Sched.Memo.create ~capacity:200_000 () in
  List.iteri
    (fun i a ->
      let base = Sched.Optimal.search ~n_batteries:2 disc a in
      let cold = Sched.Optimal.search ~shared:m ~n_batteries:2 disc a in
      let warm = Sched.Optimal.search ~shared:m ~n_batteries:2 disc a in
      check_same_result (Printf.sprintf "load %d cold" i) base cold;
      check_same_result (Printf.sprintf "load %d warm" i) base warm)
    loads;
  let s = stats_consistent "shared searches" m in
  if s.Sched.Memo.st_hits = 0 then
    Alcotest.fail "warm re-searches produced no memo hits";
  if s.Sched.Memo.st_entries = 0 then
    Alcotest.fail "searches published no entries"

(* A discretization's timeline tables are built as engines first need
   them, inside the record the searches digest: a search's memo scope
   must not move when they are.  The first [cl_alt] search fills only
   the one-unit draw table; a Monte Carlo block and a 0.75-A search
   (three-unit draws) on the same fresh discretization add more; the
   repeated search must still find the first one's entries. *)
let test_tables_stay_out_of_digests () =
  let disc = Dkibam.Discretization.make Kibam.Params.b1 in
  let m = Sched.Memo.create ~capacity:200_000 () in
  let cl_alt = enc (Loads.Testloads.load Loads.Testloads.CL_alt) in
  let first = Sched.Optimal.search ~shared:m ~n_batteries:2 disc cl_alt in
  ignore
    (Sched.Montecarlo.run ~seed:3L ~samples:64
       (Sched.Montecarlo.Onoff (Stoch.Onoff.make ~slots:40 ()))
       disc
      : Sched.Montecarlo.t);
  let heavy =
    enc
      (Loads.Random_load.intermitted ~seed:5L ~jobs:20 ~currents:[| 0.5; 0.75 |]
         ())
  in
  ignore (Sched.Optimal.search ~n_batteries:2 disc heavy : Sched.Optimal.result);
  let hits = (Sched.Memo.stats m).Sched.Memo.st_hits in
  let again = Sched.Optimal.search ~shared:m ~n_batteries:2 disc cl_alt in
  check_same_result "cl_alt again" first again;
  let hits' = (Sched.Memo.stats m).Sched.Memo.st_hits in
  if hits' <= hits then
    Alcotest.failf
      "the repeated cl_alt search found no memo entry (hits %d -> %d): the \
       scope moved with the timeline tables"
      hits hits'

let test_eviction_thrash_identical () =
  (* a store far too small for even one search: constant eviction, and
     still every answer matches the unshared baseline — then the same
     queries against a fresh tiny store re-derive it all again *)
  let g = gen 14L in
  let a = random_load g in
  let base = Sched.Optimal.search ~n_batteries:2 disc a in
  let m = Sched.Memo.create ~capacity:8 ~shards:2 () in
  let r1 = Sched.Optimal.search ~shared:m ~n_batteries:2 disc a in
  let r2 = Sched.Optimal.search ~shared:m ~n_batteries:2 disc a in
  check_same_result "thrash pass 1" base r1;
  check_same_result "thrash pass 2" base r2;
  let s = stats_consistent "thrashing store" m in
  if s.Sched.Memo.st_evictions = 0 then
    Alcotest.fail "capacity 8 never evicted — bound not exercised"

(* One scope serves three different loads: each planner narrows it by
   its own load, so no load reads another's window values. *)
let test_horizon_shared_identical () =
  let g = gen 15L in
  let m = Sched.Memo.create ~capacity:100_000 () in
  let scope = Sched.Memo.scope m ~fingerprint:"horizon-test" in
  List.iteri
    (fun i a ->
      let lt shared =
        Sched.Simulator.lifetime ~n_batteries:2
          ~policy:(Sched.Horizon.policy ?shared ~k:3 ())
          disc a
      in
      let base = lt None in
      let cold = lt (Some scope) in
      let warm = lt (Some scope) in
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "load %d: horizon cold = unshared" i)
        base cold;
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "load %d: horizon warm = unshared" i)
        base warm)
    (List.init 3 (fun _ -> random_load g));
  ignore (stats_consistent "horizon shared" m : Sched.Memo.stats)

(* ------------------------------------------------------------------ *)
(* Publication: only exact work reaches the store                      *)
(* ------------------------------------------------------------------ *)

let test_tripped_search_private () =
  (* a search a budget stops, serial or pooled, publishes nothing, so it
     cannot evict other searches' entries; the same search run to the
     end then publishes and answers exactly as an unshared one, pooled
     branches included *)
  let g = gen 17L in
  let a = random_load g in
  let base = Sched.Optimal.search ~n_batteries:2 disc a in
  (* half the load's own untripped work: the budget trips on every
     seed, serial or pooled (pooled branches cut less, so they run at
     least as many segments) *)
  let max_segments = max 1 (base.Sched.Optimal.stats.segments_run / 2) in
  let m = Sched.Memo.create ~capacity:200_000 () in
  let tripped ?pool what =
    let budget = Guard.Budget.create ~max_segments () in
    let r =
      Sched.Optimal.search ?pool ~budget ~shared:m ~n_batteries:2 disc a
    in
    (match r.Sched.Optimal.status with
    | Sched.Optimal.Budget_exhausted _ -> ()
    | Sched.Optimal.Optimal ->
        Alcotest.failf "%s: the budget never tripped" what);
    check_int (what ^ ": entries published") 0 (Sched.Memo.entries m)
  in
  tripped "serial tripped search";
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      tripped ~pool "pooled tripped search";
      let r = Sched.Optimal.search ~pool ~shared:m ~n_batteries:2 disc a in
      check_same_result "pooled exact search" base r);
  let pooled = Sched.Memo.entries m in
  if pooled = 0 then Alcotest.fail "the pooled exact search published nothing";
  let r = Sched.Optimal.search ~shared:m ~n_batteries:2 disc a in
  check_same_result "serial search, warm" base r;
  let m2 = Sched.Memo.create ~capacity:200_000 () in
  let r = Sched.Optimal.search ~shared:m2 ~n_batteries:2 disc a in
  check_same_result "serial search, cold" base r;
  if Sched.Memo.entries m2 = 0 then
    Alcotest.fail "the serial exact search published nothing";
  ignore (stats_consistent "publication" m : Sched.Memo.stats)

let test_tripped_plan_private () =
  (* a plan a budget stops keeps its entries private; a completed plan
     publishes them and chooses as an unshared planner does *)
  let g = gen 18L in
  let a = random_load g in
  let cursor = Loads.Cursor.make a in
  let y =
    let rec first y =
      if Loads.Cursor.is_idle cursor y then first (y + 1) else y
    in
    first 0
  in
  (* the whole suffix: the budget trips deep in a tree whose completed
     subtrees have already stored their values *)
  let frontier_epoch = Loads.Cursor.epoch_count cursor in
  let m = Sched.Memo.create ~capacity:100_000 () in
  let scope = Sched.Memo.scope m ~fingerprint:"plan-test" in
  let plan ?budget ?shared () =
    Sched.Optimal.plan ?budget
      (Sched.Optimal.planner ?shared disc cursor)
      ~frontier_epoch ~y ~local:0
      (Sched.Bank.create ~n_batteries:2 disc)
  in
  (* half the same plan's untripped work, so the budget trips on every
     seed *)
  let untripped = Guard.Budget.unlimited () in
  ignore (plan ~budget:untripped () : Sched.Optimal.plan option);
  let max_segments = max 1 (Guard.Budget.segments untripped / 2) in
  (match plan ~budget:(Guard.Budget.create ~max_segments ()) ~shared:scope () with
  | None -> ()
  | Some _ ->
      Alcotest.failf "a %d-segment budget did not trip the plan" max_segments);
  check_int "entries after a tripped plan" 0 (Sched.Memo.entries m);
  match (plan (), plan ~shared:scope ()) with
  | Some base, Some shared ->
      check_int "plan choice" base.Sched.Optimal.plan_choice
        shared.Sched.Optimal.plan_choice;
      check_int "plan value" base.Sched.Optimal.plan_value
        shared.Sched.Optimal.plan_value;
      if Sched.Memo.entries m = 0 then
        Alcotest.fail "the completed plan published nothing"
  | _ -> Alcotest.fail "an unbudgeted plan returned None"

(* ------------------------------------------------------------------ *)
(* Concurrency                                                         *)
(* ------------------------------------------------------------------ *)

let test_concurrent_hammer () =
  (* 4 domains hammer one store with overlapping searches; every result
     must match the serial baseline, and the atomic counters must
     balance exactly once the domains join — a lost increment or a
     double-count breaks the invariants *)
  let g = gen 16L in
  let loads =
    Array.init 4 (fun _ -> random_load g)
  in
  let baselines =
    Array.map (fun a -> Sched.Optimal.search ~n_batteries:2 disc a) loads
  in
  let m = Sched.Memo.create ~capacity:50_000 () in
  let worker i () =
    (* each domain searches every load, starting from a different one,
       so the same scopes are warmed and read concurrently *)
    List.init (Array.length loads) (fun j ->
        let k = (i + j) mod Array.length loads in
        (k, Sched.Optimal.search ~shared:m ~n_batteries:2 disc loads.(k)))
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  let results = List.concat_map Domain.join domains in
  List.iter
    (fun (k, r) ->
      check_same_result (Printf.sprintf "concurrent load %d" k) baselines.(k) r)
    results;
  let s = stats_consistent "concurrent hammer" m in
  if s.Sched.Memo.st_hits = 0 then
    Alcotest.fail "4 domains x 4 loads produced no memo hits"

let test_concurrent_direct_bound () =
  (* raw add/find traffic from 4 domains against a tiny store: the
     bound and the counter identities survive the races *)
  let capacity = 32 in
  let m = Sched.Memo.create ~capacity ~shards:4 () in
  let worker i () =
    let g = gen (Int64.of_int (100 + i)) in
    let scope = Sched.Memo.scope m ~fingerprint:"hammer" in
    for _ = 0 to 4999 do
      let cells = [| Prng.Splitmix.int g 300; Prng.Splitmix.int g 300 |] in
      match Sched.Memo.find scope cells with
      | Some v ->
          if v <> cells.(0) + cells.(1) then
            Alcotest.failf "corrupt hit: %d for [%d;%d]" v cells.(0) cells.(1)
      | None -> Sched.Memo.add scope cells (cells.(0) + cells.(1))
    done;
    Sched.Memo.entries m
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  let sizes = List.map Domain.join domains in
  List.iter
    (fun n ->
      if n > capacity then
        Alcotest.failf "mid-hammer size %d exceeds capacity %d" n capacity)
    sizes;
  ignore (stats_consistent "concurrent direct" m : Sched.Memo.stats)

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "test_memo: CHAOS_SEED=%Ld\n%!" chaos_seed;
  Alcotest.run "memo"
    [
      ( "bounds",
        [
          Alcotest.test_case "capacity never exceeded" `Quick
            test_bound_never_exceeded;
          Alcotest.test_case "hits return inserted values" `Quick
            test_hit_matches_insert;
          Alcotest.test_case "scopes isolate" `Quick test_scope_isolation;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "shared search = unshared, cold and warm" `Quick
            test_shared_search_identical;
          Alcotest.test_case "timeline tables stay out of digests" `Quick
            test_tables_stay_out_of_digests;
          Alcotest.test_case "identical under eviction thrash" `Quick
            test_eviction_thrash_identical;
          Alcotest.test_case "horizon policy identical with shared scope"
            `Quick test_horizon_shared_identical;
        ] );
      ( "publication",
        [
          Alcotest.test_case "tripped searches publish nothing" `Quick
            test_tripped_search_private;
          Alcotest.test_case "tripped plans publish nothing" `Quick
            test_tripped_plan_private;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4-domain search hammer, exact counters" `Quick
            test_concurrent_hammer;
          Alcotest.test_case "4-domain direct traffic keeps the bound" `Quick
            test_concurrent_direct_bound;
        ] );
    ]
