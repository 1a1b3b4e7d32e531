(* Differential harness for the struct-of-arrays batch engine: every
   batched lifetime and stranded-charge figure must be bit-identical to
   the scalar simulator — on the ten Table 5 loads under every policy
   and both paper batteries, on CHAOS_SEED-generated random loads, with
   and without a domain pool, at any chunking, and under any
   permutation of the lane order.

   Seeding follows the CI chaos protocol: the random half reads
   CHAOS_SEED when set (so a CI failure reproduces locally with
   [CHAOS_SEED=... dune runtest]) and every failure message logs it. *)

let chaos_seed = Guard.Chaos.seed_from_env ~default:20260808L ()
let gen salt = Prng.Splitmix.create (Int64.add chaos_seed salt)

let failf fmt =
  Printf.ksprintf (fun m -> Alcotest.failf "[seed %Ld] %s" chaos_seed m) fmt

let enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load

let discs =
  [
    ("B1", Dkibam.Discretization.paper_b1);
    ("B2", Dkibam.Discretization.paper_b2);
  ]

(* all batchable policies, plus fixed replays that exercise the
   dead-entry and exhausted-schedule fallbacks *)
let policies =
  [
    ("sequential", Sched.Policy.Sequential);
    ("round robin", Sched.Policy.Round_robin);
    ("best-of", Sched.Policy.Best_of);
    ("fixed 0110", Sched.Policy.Fixed [| 0; 1; 1; 0 |]);
    ("fixed empty", Sched.Policy.Fixed [||]);
  ]

let scalar_result ~n_batteries disc (r : Sched.Simulator.batch_request) =
  let o =
    Sched.Simulator.simulate ~n_batteries ~policy:r.req_policy disc r.req_load
  in
  ( o.Sched.Simulator.lifetime_steps,
    Sched.Bank.stranded_units o.Sched.Simulator.final )

let check_requests ~what ~n_batteries disc requests =
  let batched =
    Sched.Simulator.run_batch ~batch:true ~n_batteries disc requests
  in
  let scalar =
    Sched.Simulator.run_batch ~batch:false ~n_batteries disc requests
  in
  Array.iteri
    (fun i (b : Sched.Simulator.batch_result) ->
      let s = scalar.(i) in
      if b.res_lifetime_steps <> s.res_lifetime_steps then
        failf "%s lane %d: batch lifetime %s vs scalar %s" what i
          (match b.res_lifetime_steps with
          | Some x -> string_of_int x
          | None -> "survived")
          (match s.res_lifetime_steps with
          | Some x -> string_of_int x
          | None -> "survived");
      if b.res_stranded <> s.res_stranded then
        failf "%s lane %d: batch stranded %d vs scalar %d" what i
          b.res_stranded s.res_stranded;
      (* and the scalar fallback itself must agree with a direct
         simulate — three-way pin, not just two-way *)
      let direct = scalar_result ~n_batteries disc requests.(i) in
      if direct <> (s.res_lifetime_steps, s.res_stranded) then
        failf "%s lane %d: run_batch scalar path diverges from simulate" what i)
    batched

(* ------------------------------------------------------------------ *)
(* Table 5 loads x all policies x B1/B2 x pack sizes                   *)
(* ------------------------------------------------------------------ *)

let test_table5_differential () =
  List.iter
    (fun (disc_name, disc) ->
      let arrays =
        List.map (fun n -> enc (Loads.Testloads.load n)) Loads.Testloads.all_names
      in
      List.iter
        (fun n_batteries ->
          let requests =
            Array.of_list
              (List.concat_map
                 (fun a ->
                   List.map
                     (fun (_, p) ->
                       { Sched.Simulator.req_load = a; req_policy = p })
                     policies)
                 arrays)
          in
          check_requests
            ~what:(Printf.sprintf "table5 %s x%d" disc_name n_batteries)
            ~n_batteries disc requests)
        [ 2; 3 ])
    discs

(* ------------------------------------------------------------------ *)
(* CHAOS_SEED random loads                                             *)
(* ------------------------------------------------------------------ *)

(* general random load: currents on the 0.01 A grid (arbitrary draw
   cadences), durations and idles on the 0.1 min grid *)
let random_load g ~jobs =
  Loads.Epoch.concat
    (List.concat
       (List.init jobs (fun _ ->
            let current = 0.01 *. float_of_int (1 + Prng.Splitmix.int g 60) in
            let duration = 0.1 *. float_of_int (1 + Prng.Splitmix.int g 20) in
            let idle = 0.1 *. float_of_int (Prng.Splitmix.int g 6) in
            Loads.Epoch.job ~current ~duration
            :: (if idle > 0.0 then [ Loads.Epoch.idle idle ] else []))))

let test_chaos_differential () =
  let g = gen 1L in
  let disc = Dkibam.Discretization.paper_b1 in
  let loads =
    Array.init 50 (fun _ ->
        enc (random_load g ~jobs:(3 + Prng.Splitmix.int g 10)))
  in
  List.iter
    (fun n_batteries ->
      let requests =
        Array.of_list
          (List.concat_map
             (fun a ->
               List.map
                 (fun (_, p) -> { Sched.Simulator.req_load = a; req_policy = p })
                 policies)
             (Array.to_list loads))
      in
      check_requests
        ~what:(Printf.sprintf "chaos x%d" n_batteries)
        ~n_batteries disc requests)
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Chunking, pooling, mixed scalar fallback                            *)
(* ------------------------------------------------------------------ *)

let chaos_requests g ~loads =
  Array.init loads (fun _ ->
      let a = enc (random_load g ~jobs:(3 + Prng.Splitmix.int g 8)) in
      List.map
        (fun (_, p) -> { Sched.Simulator.req_load = a; req_policy = p })
        policies)
  |> Array.to_list |> List.concat |> Array.of_list

let test_chunking_and_pool () =
  let g = gen 2L in
  let disc = Dkibam.Discretization.paper_b1 in
  let requests = chaos_requests g ~loads:12 in
  let reference =
    Sched.Simulator.run_batch ~batch:true ~n_batteries:2 disc requests
  in
  (* tiny chunks force many per-call batches *)
  let chunked =
    Sched.Simulator.run_batch ~batch:true ~chunk:3 ~n_batteries:2 disc requests
  in
  if chunked <> reference then failf "chunk:3 changed a result";
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      let pooled =
        Sched.Simulator.run_batch ~pool ~batch:true ~chunk:5 ~n_batteries:2
          disc requests
      in
      if pooled <> reference then failf "pooled run changed a result")

let test_mixed_custom_fallback () =
  (* a Custom lane (not batchable) interleaved with batched lanes: slot
     i must still hold request i's result, and the Custom lane must
     match its scalar twin *)
  let g = gen 3L in
  let disc = Dkibam.Discretization.paper_b1 in
  let a = enc (random_load g ~jobs:8) in
  let seq_like = Sched.Policy.Custom (fun ctx -> List.hd ctx.alive) in
  let requests =
    [|
      { Sched.Simulator.req_load = a; req_policy = Sched.Policy.Best_of };
      { Sched.Simulator.req_load = a; req_policy = seq_like };
      { Sched.Simulator.req_load = a; req_policy = Sched.Policy.Sequential };
    |]
  in
  let r = Sched.Simulator.run_batch ~batch:true ~n_batteries:2 disc requests in
  let direct i = scalar_result ~n_batteries:2 disc requests.(i) in
  Array.iteri
    (fun i (res : Sched.Simulator.batch_result) ->
      if direct i <> (res.res_lifetime_steps, res.res_stranded) then
        failf "mixed lane %d diverges from simulate" i)
    r;
  (* the Custom lane mimics Sequential, so lanes 1 and 2 must agree *)
  if r.(1) <> r.(2) then failf "custom sequential-alike diverges from sequential"

let test_no_batch_env () =
  (* BATSCHED_NO_BATCH=1 must force the scalar fallback without
     changing any value *)
  let g = gen 4L in
  let disc = Dkibam.Discretization.paper_b1 in
  let requests = chaos_requests g ~loads:4 in
  let reference =
    Sched.Simulator.run_batch ~batch:true ~n_batteries:2 disc requests
  in
  Unix.putenv "BATSCHED_NO_BATCH" "1";
  let fallback =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "BATSCHED_NO_BATCH" "")
      (fun () -> Sched.Simulator.run_batch ~n_batteries:2 disc requests)
  in
  if fallback <> reference then failf "BATSCHED_NO_BATCH changed a result"

(* Each distinct load is compiled once, found again by physical
   identity: shuffled requests over many loads, several lanes on each
   physically shared load, two structurally equal but physically
   distinct loads, Custom lanes and a load the compile guard refuses
   mixed in.  Every slot must hold its own request's simulate result,
   and the engine must have run every batchable lane. *)
let test_load_dedup () =
  let g = gen 6L in
  let disc = Dkibam.Discretization.paper_b1 in
  let twin = random_load g ~jobs:6 in
  let twin_a = enc twin and twin_b = enc twin in
  if twin_a <> twin_b || twin_a == twin_b then failf "twins are not twins";
  (* one job, then an idle past the compiled step-counter ceiling *)
  let refused =
    Loads.Arrays.of_arrays ~time_step:0.01 ~charge_unit:0.01
      ~load_time:[| 500; Loads.Cursor.max_compiled_steps + 1 |]
      ~cur_times:[| 1; 1 |] ~cur:[| 1; 0 |]
  in
  let loads =
    Array.append
      [| twin_a; twin_b; refused |]
      (Array.init 40 (fun _ -> enc (random_load g ~jobs:(3 + Prng.Splitmix.int g 8))))
  in
  let custom = Sched.Policy.Custom (fun ctx -> List.hd ctx.alive) in
  let requests =
    Array.concat
      (Array.to_list
         (Array.map
            (fun a ->
              Array.init (2 + Prng.Splitmix.int g 3) (fun _ ->
                  let policy =
                    if Prng.Splitmix.int g 6 = 0 then custom
                    else snd (List.nth policies (Prng.Splitmix.int g (List.length policies)))
                  in
                  { Sched.Simulator.req_load = a; req_policy = policy }))
            loads))
  in
  let n = Array.length requests in
  for i = n - 1 downto 1 do
    let j = Prng.Splitmix.int g (i + 1) in
    let t = requests.(i) in
    requests.(i) <- requests.(j);
    requests.(j) <- t
  done;
  let batchable =
    Array.fold_left
      (fun k (r : Sched.Simulator.batch_request) ->
        match r.req_policy with
        | Sched.Policy.Custom _ -> k
        | _ -> if r.req_load == refused then k else k + 1)
      0 requests
  in
  Obs.reset ();
  Obs.enable ();
  let batched =
    Fun.protect ~finally:Obs.disable (fun () ->
        Sched.Simulator.run_batch ~batch:true ~chunk:16 ~n_batteries:2 disc requests)
  in
  let lanes = Obs.counter_value (Obs.snapshot ()) "batch.lanes" in
  Obs.reset ();
  if lanes <> batchable then
    failf "batch.lanes counted %d lanes, %d are batchable" lanes batchable;
  let scalar = Sched.Simulator.run_batch ~batch:false ~n_batteries:2 disc requests in
  Array.iteri
    (fun i (b : Sched.Simulator.batch_result) ->
      if scalar_result ~n_batteries:2 disc requests.(i) <> (b.res_lifetime_steps, b.res_stranded)
      then failf "dedup lane %d diverges from simulate" i;
      if scalar.(i) <> b then failf "dedup lane %d: batch:false differs" i)
    batched

(* ------------------------------------------------------------------ *)
(* Lane-permutation invariance                                         *)
(* ------------------------------------------------------------------ *)

let engine_policy = function
  | Sched.Policy.Sequential -> Batch.Engine.Sequential
  | Sched.Policy.Round_robin -> Batch.Engine.Round_robin
  | Sched.Policy.Best_of -> Batch.Engine.Best_of
  | Sched.Policy.Fixed s -> Batch.Engine.Fixed s
  | Sched.Policy.Custom _ -> assert false

let test_lane_permutation () =
  let g = gen 5L in
  let disc = Dkibam.Discretization.paper_b1 in
  let compiled =
    Array.init 10 (fun _ ->
        Loads.Cursor.compile_exn
          (Loads.Cursor.make (enc (random_load g ~jobs:(3 + Prng.Splitmix.int g 8)))))
  in
  let lanes =
    Array.of_list
      (List.concat_map
         (fun load ->
           List.map
             (fun (_, p) -> { Batch.Engine.load; policy = engine_policy p })
             policies)
         (List.init 10 Fun.id))
  in
  let n = Array.length lanes in
  let result st lane =
    (Batch.State.lifetime_steps st lane, Batch.State.stranded st lane)
  in
  let st = Batch.Engine.run ~n_batteries:2 disc ~loads:compiled ~lanes in
  (* a seeded Fisher-Yates shuffle of the lane order *)
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.Splitmix.int g (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let shuffled = Array.map (fun i -> lanes.(i)) perm in
  let st' = Batch.Engine.run ~n_batteries:2 disc ~loads:compiled ~lanes:shuffled in
  for k = 0 to n - 1 do
    if result st' k <> result st perm.(k) then
      failf "lane %d (originally %d): result changed under permutation" k
        perm.(k)
  done

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "test_batch: CHAOS_SEED=%Ld\n%!" chaos_seed;
  Alcotest.run "batch"
    [
      ( "differential",
        [
          Alcotest.test_case "table5 loads x policies x B1/B2 x pack sizes"
            `Quick test_table5_differential;
          Alcotest.test_case "50 chaos loads x policies x pack sizes" `Quick
            test_chaos_differential;
        ] );
      ( "packing",
        [
          Alcotest.test_case "chunked + pooled identical" `Quick
            test_chunking_and_pool;
          Alcotest.test_case "mixed custom fallback slots" `Quick
            test_mixed_custom_fallback;
          Alcotest.test_case "BATSCHED_NO_BATCH fallback identical" `Quick
            test_no_batch_env;
          Alcotest.test_case "loads deduplicated by identity" `Quick
            test_load_dedup;
        ] );
      ( "properties",
        [
          Alcotest.test_case "lane-permutation invariance" `Quick
            test_lane_permutation;
        ] );
    ]
