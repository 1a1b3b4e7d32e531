(* The daemon's robustness contract, held in-process: the server runs
   in a spawned domain against a unique /tmp socket, the test talks to
   it through Serve.Client, and stop/abort Guard.Cancel tokens stand in
   for SIGTERM and kill -9.  The centerpiece is a seeded >=10k-frame
   hostile fuzz — random bytes, truncated JSON, wrong-shape JSON,
   oversized frames, partial-line disconnects — through which every
   answered frame must come back as structured JSON and the server must
   stay alive; around it, the designed-outcome paths: anytime answers
   under per-request budgets, overload shedding and degradation,
   idle-timeout closes, draining shutdown, and warm-start cache
   bit-identity across a simulated crash. *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Printf.sprintf "%s/batsched_serve_%d_%d.sock"
    (Filename.get_temp_dir_name ())
    (Unix.getpid ()) !sock_counter

type running = {
  stop : Guard.Cancel.t;
  abort : Guard.Cancel.t;
  handle : Serve.Server.outcome Domain.t;
}

let start ?(tweak = fun c -> c) () =
  let path = fresh_sock () in
  let stop = Guard.Cancel.create () in
  let abort = Guard.Cancel.create () in
  let cfg = tweak (Serve.Server.default_config ~socket_path:path) in
  let handle = Domain.spawn (fun () -> Serve.Server.run ~stop ~abort cfg) in
  (path, { stop; abort; handle })

let finish r =
  Guard.Cancel.cancel r.stop;
  ignore (Domain.join r.handle : Serve.Server.outcome)

let connect path = Serve.Client.connect_exn ~wait_ms:5_000 path

let request_exn c line =
  match Serve.Client.request c line with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "request failed: %s" (Guard.Error.to_string e)

let json_of line =
  match Obs.Json.of_string line with
  | Ok j -> j
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let member_exn name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Obs.Json.to_string j)

let bool_member name j =
  match Obs.Json.member name j with Some (Obs.Json.Bool b) -> b | _ -> false

let is_ok j = bool_member "ok" j
let is_degraded j = bool_member "degraded" j

(* --- basic round trips ----------------------------------------------- *)

let test_roundtrip () =
  let path, r = start () in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let compare_resp =
    json_of (request_exn c {|{"id":1,"op":"compare","load":"cl_alt","n":2}|})
  in
  Alcotest.(check bool) "compare ok" true (is_ok compare_resp);
  Alcotest.(check bool) "compare exact" false (is_degraded compare_resp);
  (match member_exn "result" compare_resp |> Obs.Json.member "policies" with
  | Some (Obs.Json.Obj rows) ->
      Alcotest.(check bool)
        "has round robin row" true
        (List.mem_assoc "round robin" rows)
  | _ -> Alcotest.fail "compare result lacks policies");
  let sched =
    json_of
      (request_exn c
         {|{"id":2,"op":"schedule","spec":"repeat 10 (job 0.5 1; idle 1)","n":2}|})
  in
  Alcotest.(check bool) "schedule ok" true (is_ok sched);
  (match member_exn "result" sched |> Obs.Json.member "status" with
  | Some (Obs.Json.String "optimal") -> ()
  | s ->
      Alcotest.failf "schedule status not optimal: %s"
        (match s with Some j -> Obs.Json.to_string j | None -> "absent"));
  let mc =
    json_of
      (request_exn c {|{"id":3,"op":"montecarlo","samples":200,"slots":40}|})
  in
  Alcotest.(check bool) "montecarlo ok" true (is_ok mc);
  let ens =
    json_of
      (request_exn c
         {|{"id":4,"op":"ensemble","loads":3,"jobs_per_load":20,"include_optimal":false}|})
  in
  Alcotest.(check bool) "ensemble ok" true (is_ok ens);
  let stats = json_of (request_exn c {|{"id":5,"op":"stats"}|}) in
  Alcotest.(check bool) "stats ok" true (is_ok stats);
  (* the id is echoed verbatim *)
  match member_exn "id" stats with
  | Obs.Json.Int 5 -> ()
  | j -> Alcotest.failf "id not echoed: %s" (Obs.Json.to_string j)

(* --- hostile-input fuzz ---------------------------------------------- *)

(* A valid request string to mutilate. *)
let seed_frame = {|{"id":7,"op":"compare","load":"cl_alt","n":2}|}

let random_garbage st =
  let n = 1 + Random.State.int st 96 in
  String.init n (fun _ ->
      (* anything but the newline framing byte *)
      let c = Char.chr (Random.State.int st 256) in
      if c = '\n' then 'x' else c)

let wrong_shape =
  [|
    {|123|};
    {|"schedule"|};
    {|[1,2,3]|};
    {|{}|};
    {|{"op":"nope"}|};
    {|{"op":"schedule"}|};
    {|{"op":"schedule","load":"no_such_load"}|};
    {|{"op":"schedule","load":"cl_alt","n":0}|};
    {|{"op":"schedule","load":"cl_alt","n":99}|};
    {|{"op":"schedule","spec":"repeat -3 (job"}|};
    (* 900 M epochs if expanded: refused before it is *)
    {|{"op":"schedule","spec":"repeat 30000 (repeat 30000 (job 0.5 1))"}|};
    {|{"op":"montecarlo","samples":-5}|};
    {|{"op":"montecarlo","slots":1000000}|};
    {|{"op":"ensemble","loads":0}|};
    {|{"op":"compare","load":"cl_alt","deadline_ms":-1}|};
    {|{"op":"compare","load":"cl_alt","max_segments":0}|};
    {|{"op":null}|};
    {|{"id":{"k":[true,null]},"op":"stats","extra":1e309}|};
  |]

let test_fuzz_10k_frames () =
  (* tiny frame cap so the oversized path is exercised cheaply *)
  let path, r =
    start ~tweak:(fun c -> { c with Serve.Server.max_frame_bytes = 512 }) ()
  in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let st = Random.State.make [| 0xBA75C4; 0xED |] in
  let c = ref (connect path) in
  let frames = ref 0 in
  let structured_errors = ref 0 in
  let ok_interleaved = ref 0 in
  let send_and_check line =
    incr frames;
    let resp = request_exn !c line in
    let j = json_of resp in
    (match Obs.Json.member "ok" j with
    | Some (Obs.Json.Bool b) ->
        if b then incr ok_interleaved
        else begin
          incr structured_errors;
          ignore (member_exn "error" j)
        end
    | _ -> Alcotest.failf "response without ok flag: %s" resp)
  in
  for i = 1 to 10_200 do
    if i mod 509 = 0 then begin
      (* slow-loris: a partial line, then a hangup — no response owed *)
      let victim = connect path in
      Serve.Client.send_raw victim {|{"op":"compare","load|};
      Serve.Client.close victim;
      incr frames
    end
    else if i mod 97 = 0 then
      (* interleaved valid traffic must keep working mid-fuzz *)
      send_and_check {|{"op":"stats"}|}
    else
      match i mod 4 with
      | 0 -> send_and_check (random_garbage st)
      | 1 ->
          let cut = 1 + Random.State.int st (String.length seed_frame - 1) in
          send_and_check (String.sub seed_frame 0 cut)
      | 2 ->
          send_and_check
            wrong_shape.(Random.State.int st (Array.length wrong_shape))
      | _ ->
          (* oversized: far beyond the 512-byte cap *)
          send_and_check (String.make (600 + Random.State.int st 600) 'a')
  done;
  Alcotest.(check bool) "at least 10k hostile frames" true (!frames >= 10_000);
  Alcotest.(check bool)
    "structured errors observed" true
    (!structured_errors >= 7_000);
  Alcotest.(check bool) "interleaved valid served" true (!ok_interleaved >= 100);
  (* the server is still fully alive after the storm *)
  let fresh = connect path in
  let final =
    json_of (request_exn fresh {|{"op":"compare","load":"cl_alt","n":2}|})
  in
  Serve.Client.close fresh;
  Serve.Client.close !c;
  Alcotest.(check bool) "alive after fuzz" true (is_ok final)

(* --- per-request budgets: anytime answers, not errors ----------------- *)

let test_deadline_anytime () =
  let path, r = start () in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let j =
    json_of
      (request_exn c
         {|{"id":9,"op":"schedule","load":"cl_alt","n":2,"max_segments":1}|})
  in
  Alcotest.(check bool) "budgeted request still ok" true (is_ok j);
  Alcotest.(check bool) "tagged degraded" true (is_degraded j);
  (match member_exn "degraded_reason" j with
  | Obs.Json.String "segments" -> ()
  | v -> Alcotest.failf "unexpected reason %s" (Obs.Json.to_string v));
  match member_exn "result" j |> Obs.Json.member "status" with
  | Some (Obs.Json.String s) ->
      Alcotest.(check bool)
        "anytime status" true
        (String.length s >= 7 && String.sub s 0 7 = "anytime")
  | _ -> Alcotest.fail "budgeted result lacks status"

(* --- exact spec keys and the default search cap ----------------------- *)

let result_int name j =
  match member_exn "result" j |> Obs.Json.member name with
  | Some (Obs.Json.Int n) -> n
  | _ -> Alcotest.failf "result lacks %S: %s" name (Obs.Json.to_string j)

(* Two specs that differ only past the sixth significant digit of one
   idle: a six-digit render of the load would give them one cache key,
   and the second would be answered with the first's lifetime.  Each
   answer must be the optimum an independent search finds for its own
   spec — the same search the CLI's [compare --spec] runs. *)
let near_twins =
  [
    "job 0.5 1; idle 12345.61; repeat 300 (job 0.5 1; idle 0.5)";
    "job 0.5 1; idle 12345.64; repeat 300 (job 0.5 1; idle 0.5)";
  ]

(* Two Monte Carlo deadlines 0.8e-6 min apart: a six-decimal key gave
   them one cache entry, and the second was answered with the first's
   [death_before] estimate and deadline. *)
let near_twin_deadlines =
  [
    {|{"op":"montecarlo","seed":7,"samples":500,"slots":40,"deadline_min":15.0399996}|};
    {|{"op":"montecarlo","seed":7,"samples":500,"slots":40,"deadline_min":15.0400004}|};
  ]

let cli_optimum spec =
  let arrays =
    Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 (Loads.Spec.parse spec)
  in
  (Sched.Optimal.search ~n_batteries:2 Dkibam.Discretization.paper_b1 arrays)
    .lifetime_steps

let test_spec_keys_exact () =
  let frame op spec =
    Printf.sprintf {|{"op":"%s","spec":%s,"n":2}|} op
      (Obs.Json.to_string (Obs.Json.String spec))
  in
  let keys =
    List.map
      (fun spec ->
        match Serve.Protocol.parse_request (frame "schedule" spec) with
        | Ok req -> Serve.Protocol.cache_key req
        | Error (_, e) -> Alcotest.failf "refused: %s" (Guard.Error.to_string e))
      near_twins
  in
  Alcotest.(check bool)
    "near-twin specs get different keys" true
    (List.nth keys 0 <> List.nth keys 1);
  let path, r = start () in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let optima = List.map cli_optimum near_twins in
  Alcotest.(check bool)
    "the twins have different optima" true
    (List.nth optima 0 <> List.nth optima 1);
  List.iter2
    (fun spec optimum ->
      let j = json_of (request_exn c (frame "schedule" spec)) in
      Alcotest.(check bool) "schedule ok" true (is_ok j && not (is_degraded j));
      Alcotest.(check int)
        ("schedule lifetime_steps of " ^ spec)
        optimum
        (result_int "lifetime_steps" j);
      let j = json_of (request_exn c (frame "compare" spec)) in
      match member_exn "result" j |> Obs.Json.member "optimal_min" with
      | Some (Obs.Json.Float m) ->
          Alcotest.(check (float 1e-9))
            ("compare optimal_min of " ^ spec)
            (float_of_int optimum *. 0.01)
            m
      | _ -> Alcotest.failf "compare lacks optimal_min: %s" (Obs.Json.to_string j))
    near_twins optima;
  let mc_keys =
    List.map
      (fun line ->
        match Serve.Protocol.parse_request line with
        | Ok req -> Serve.Protocol.cache_key req
        | Error (_, e) -> Alcotest.failf "refused: %s" (Guard.Error.to_string e))
      near_twin_deadlines
  in
  Alcotest.(check bool)
    "near-twin deadlines get different keys" true
    (List.nth mc_keys 0 <> List.nth mc_keys 1);
  (* each deadline answered in both orders: by this daemon after its
     twin, and by a fresh one before it *)
  let forward = List.map (request_exn c) near_twin_deadlines in
  let path2, r2 = start () in
  Fun.protect ~finally:(fun () -> finish r2) @@ fun () ->
  let c2 = connect path2 in
  Fun.protect ~finally:(fun () -> Serve.Client.close c2) @@ fun () ->
  let backward =
    List.rev (List.map (request_exn c2) (List.rev near_twin_deadlines))
  in
  Alcotest.(check (list string)) "deadline answers in either order" backward
    forward;
  Alcotest.(check bool)
    "the twins have different answers" true
    (List.nth forward 0 <> List.nth forward 1)

(* An int field of a [stats] response's [result.<section>]. *)
let sub_int stats section field =
  match
    member_exn "result" stats |> Obs.Json.member section
    |> Option.map (Obs.Json.member field)
  with
  | Some (Some (Obs.Json.Int v)) -> v
  | _ -> Alcotest.failf "stats lacks %s.%s" section field

(* A sub-kilobyte frame whose exact search has no useful end: 30 random
   250/500 mA jobs on three B1 cells.  Without a cap it held gigabytes
   of memo after minutes; under the daemon's positions cap it comes
   back as a labelled anytime answer, and the daemon keeps serving.
   The capped search keeps its memo entries private, so a warm load's
   entries survive it: the shared memo neither grows nor evicts across
   the frame, and a later search of the warm load hits it. *)
let test_hostile_search_capped () =
  let spec =
    Loads.Spec.to_string (Loads.Random_load.intermitted ~seed:10L ~jobs:30 ())
  in
  let path, r = start () in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let warm =
    json_of
      (request_exn c {|{"id":0,"op":"schedule","load":"cl_alt","n":2}|})
  in
  Alcotest.(check bool) "warm-up schedule exact" true
    (is_ok warm && not (is_degraded warm));
  let stats0 = json_of (request_exn c {|{"op":"stats"}|}) in
  let t0 = Unix.gettimeofday () in
  let j =
    json_of
      (request_exn c
         (Printf.sprintf {|{"id":1,"op":"schedule","spec":%s,"n":3}|}
            (Obs.Json.to_string (Obs.Json.String spec))))
  in
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "answered ok" true (is_ok j);
  Alcotest.(check bool) "tagged degraded" true (is_degraded j);
  (match member_exn "degraded_reason" j with
  | Obs.Json.String "positions" -> ()
  | v -> Alcotest.failf "unexpected reason %s" (Obs.Json.to_string v));
  if took > 60.0 then Alcotest.failf "capped search took %.1f s" took;
  let stats1 = json_of (request_exn c {|{"id":2,"op":"stats"}|}) in
  Alcotest.(check bool) "stats answered after it" true (is_ok stats1);
  Alcotest.(check int) "capped search published no memo entries"
    (sub_int stats0 "memo" "entries")
    (sub_int stats1 "memo" "entries");
  Alcotest.(check int) "capped search evicted no memo entries"
    (sub_int stats0 "memo" "evictions")
    (sub_int stats1 "memo" "evictions");
  let j =
    json_of (request_exn c {|{"id":3,"op":"compare","load":"cl_alt","n":2}|})
  in
  Alcotest.(check bool) "compare of the warm load exact" true
    (is_ok j && not (is_degraded j));
  let stats2 = json_of (request_exn c {|{"op":"stats"}|}) in
  if sub_int stats2 "memo" "hits" <= sub_int stats1 "memo" "hits" then
    Alcotest.failf "the warm load's search found no memo entry (hits %d -> %d)"
      (sub_int stats1 "memo" "hits")
      (sub_int stats2 "memo" "hits");
  if sub_int stats2 "memo" "entries" >= sub_int stats2 "memo" "capacity" then
    Alcotest.failf "memo at capacity (%d entries)"
      (sub_int stats2 "memo" "entries")

(* The same frame as a [compare]: the capped search's anytime answer
   would fall below the response's own Horizon row, so [optimal_min] is
   floored by the best policy row, and [floor] names it. *)
let test_capped_compare_floored () =
  let spec =
    Loads.Spec.to_string (Loads.Random_load.intermitted ~seed:10L ~jobs:30 ())
  in
  let path, r = start () in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let j =
    json_of
      (request_exn c
         (Printf.sprintf {|{"id":1,"op":"compare","spec":%s,"n":3}|}
            (Obs.Json.to_string (Obs.Json.String spec))))
  in
  Alcotest.(check bool) "answered ok" true (is_ok j);
  Alcotest.(check bool) "tagged degraded" true (is_degraded j);
  let result = member_exn "result" j in
  let field name =
    match Obs.Json.member name result with
    | Some v -> v
    | None -> Alcotest.failf "compare lacks %s: %s" name (Obs.Json.to_string j)
  in
  (match field "status" with
  | Obs.Json.String "anytime" -> ()
  | v -> Alcotest.failf "unexpected status %s" (Obs.Json.to_string v));
  let rows =
    match field "policies" with
    | Obs.Json.Obj rows ->
        List.filter_map
          (function name, Obs.Json.Float m -> Some (name, m) | _ -> None)
          rows
    | v -> Alcotest.failf "policies is not an object: %s" (Obs.Json.to_string v)
  in
  let best_name, best =
    List.fold_left
      (fun (bn, b) (n, m) -> if m > b then (n, m) else (bn, b))
      ("", neg_infinity) rows
  in
  Alcotest.(check string) "the best row is the Horizon row" "horizon-4"
    best_name;
  (match field "optimal_min" with
  | Obs.Json.Float m -> Alcotest.(check (float 0.0)) "optimal_min" best m
  | v -> Alcotest.failf "optimal_min is %s" (Obs.Json.to_string v));
  match field "floor" with
  | Obs.Json.String n -> Alcotest.(check string) "floor names the row" best_name n
  | v -> Alcotest.failf "floor is %s" (Obs.Json.to_string v)

(* --- admission control: shed + overload degradation ------------------- *)

let test_overload_shed_and_degrade () =
  let path, r =
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
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let n = 12 in
  let buf = Buffer.create 1024 in
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf {|{"id":%d,"op":"schedule","load":"cl_alt","n":2}|} i);
    Buffer.add_char buf '\n'
  done;
  (* one burst: the queue (capacity 2) must shed most of it *)
  Serve.Client.send_raw c (Buffer.contents buf);
  let shed = ref 0 and degraded = ref 0 and exact = ref 0 in
  for _ = 1 to n do
    match Serve.Client.recv_line c with
    | Error e -> Alcotest.failf "lost a response: %s" (Guard.Error.to_string e)
    | Ok line ->
        let j = json_of line in
        if not (is_ok j) then begin
          incr shed;
          (match member_exn "retry_after_ms" j with
          | Obs.Json.Int ms ->
              Alcotest.(check bool) "positive retry hint" true (ms > 0)
          | v -> Alcotest.failf "retry_after_ms: %s" (Obs.Json.to_string v));
          match member_exn "error" j |> Obs.Json.member "what" with
          | Some (Obs.Json.String w) ->
              Alcotest.(check string) "shed taxonomy" "overloaded" w
          | _ -> Alcotest.fail "shed error lacks what"
        end
        else if is_degraded j then begin
          incr degraded;
          match member_exn "degraded_reason" j with
          | Obs.Json.String "overload" -> ()
          | v -> Alcotest.failf "reason %s" (Obs.Json.to_string v)
        end
        else incr exact
  done;
  Alcotest.(check int) "every request answered" n (!shed + !degraded + !exact);
  Alcotest.(check bool) "burst shed" true (!shed >= n - 2);
  Alcotest.(check bool)
    "admitted burst answered degraded" true
    (!degraded >= 1)

(* --- idle timeout ----------------------------------------------------- *)

let test_idle_timeout () =
  let path, r =
    start ~tweak:(fun c -> { c with Serve.Server.idle_timeout_s = 0.2 }) ()
  in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c = connect path in
  (* no traffic: the server must close us, visible as EOF *)
  (match Serve.Client.recv_line c with
  | Error _ -> ()
  | Ok line -> Alcotest.failf "idle connection got %S" line);
  Serve.Client.close c;
  (* and a fresh connection still works *)
  let c2 = connect path in
  let j = json_of (request_exn c2 {|{"op":"stats"}|}) in
  Serve.Client.close c2;
  Alcotest.(check bool) "alive after idle sweep" true (is_ok j)

(* --- draining shutdown ------------------------------------------------ *)

let test_drain_shutdown () =
  let path, r = start () in
  let c = connect path in
  ignore (request_exn c {|{"op":"stats"}|});
  Guard.Cancel.cancel r.stop;
  let outcome = Domain.join r.handle in
  Serve.Client.close c;
  Alcotest.(check bool) "clean drain" false outcome.Serve.Server.aborted;
  Alcotest.(check bool)
    "served the pre-drain traffic" true
    (outcome.Serve.Server.requests_served >= 1);
  (* socket is gone: a late client cannot connect *)
  match Serve.Client.connect path with
  | Error _ -> ()
  | Ok late ->
      Serve.Client.close late;
      Alcotest.fail "connected after shutdown"

(* --- crash-safe cache: warm restart is bit-identical ------------------ *)

let test_cache_warm_restart_identical () =
  let cache = Filename.temp_file "serve_cache" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove cache with Sys_error _ -> ())
  @@ fun () ->
  let tweak c =
    { c with Serve.Server.cache_path = Some cache; cache_save_every = 1 }
  in
  let batch =
    [
      {|{"id":1,"op":"schedule","spec":"repeat 10 (job 0.5 1; idle 1)","n":2}|};
      {|{"id":2,"op":"compare","load":"cl_alt","n":2}|};
    ]
  in
  (* cold daemon, then a simulated kill -9 (abort skips the final save;
     the per-insert autosaves are what must survive) *)
  let path1, r1 = start ~tweak () in
  let c1 = connect path1 in
  let cold = List.map (request_exn c1) batch in
  Serve.Client.close c1;
  Guard.Cancel.cancel r1.abort;
  let o1 = Domain.join r1.handle in
  Alcotest.(check bool) "aborted" true o1.Serve.Server.aborted;
  (* warm daemon on the same cache file *)
  let path2, r2 = start ~tweak () in
  Fun.protect ~finally:(fun () -> finish r2) @@ fun () ->
  let c2 = connect path2 in
  Fun.protect ~finally:(fun () -> Serve.Client.close c2) @@ fun () ->
  let warm = List.map (request_exn c2) batch in
  List.iter2
    (fun a b -> Alcotest.(check string) "bit-identical across restart" a b)
    cold warm;
  let stats = json_of (request_exn c2 {|{"op":"stats"}|}) in
  match
    member_exn "result" stats |> Obs.Json.member "cache"
    |> Option.map (Obs.Json.member "hits")
  with
  | Some (Some (Obs.Json.Int hits)) ->
      Alcotest.(check bool) "warm answers came from the cache" true (hits >= 2)
  | _ -> Alcotest.fail "stats lacks cache.hits"

(* --- multi-domain dispatch ------------------------------------------- *)

(* Satellite of the multi-domain battery: 4 client domains fuzz a
   3-worker daemon concurrently — hostile frames, slow-loris hangups
   and valid traffic interleaved on every connection — then every
   exact response harvested under contention is replayed against a
   fresh single-domain daemon and must come back byte-identical. *)
let test_concurrent_fuzz_and_replay () =
  let path, r =
    start
      ~tweak:(fun c -> { c with Serve.Server.domains = 3; max_frame_bytes = 512 })
      ()
  in
  let valid ~ci ~i =
    let id = (ci * 1000) + i in
    if i mod 2 = 0 then
      Printf.sprintf
        {|{"id":%d,"op":"schedule","spec":"repeat %d (job 0.5 1; idle 1)","n":2}|}
        id
        (8 + (ci mod 2))
    else Printf.sprintf {|{"id":%d,"op":"compare","load":"cl_alt","n":2}|} id
  in
  let worker ci () =
    let st = Random.State.make [| 0xF0CC; ci |] in
    let c = connect path in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let exact = ref [] in
    let frames = ref 0 and errors = ref 0 and oks = ref 0 in
    for i = 1 to 120 do
      if i mod 13 = 0 then begin
        (* slow-loris alongside everyone else's live traffic *)
        let v = connect path in
        Serve.Client.send_raw v {|{"op":"sched|};
        Serve.Client.close v;
        incr frames
      end
      else begin
        incr frames;
        let line, is_valid =
          if i mod 5 = 0 then (random_garbage st, false)
          else if i mod 7 = 0 then
            (String.make (600 + Random.State.int st 400) 'b', false)
          else if i mod 3 = 0 then ({|{"op":"stats"}|}, false)
          else (valid ~ci ~i, true)
        in
        let resp = request_exn c line in
        let j = json_of resp in
        match Obs.Json.member "ok" j with
        | Some (Obs.Json.Bool true) ->
            incr oks;
            if is_valid then begin
              if is_degraded j then
                Alcotest.fail "degraded under a 4-client load: watermark bug";
              exact := (line, resp) :: !exact
            end
        | Some (Obs.Json.Bool false) ->
            incr errors;
            ignore (member_exn "error" j)
        | _ -> Alcotest.failf "response without ok flag: %s" resp
      end
    done;
    (!frames, !errors, !oks, List.rev !exact)
  in
  let results =
    List.map Domain.join (List.init 4 (fun ci -> Domain.spawn (worker ci)))
  in
  (* still alive after the concurrent storm *)
  let fresh = connect path in
  let final =
    json_of (request_exn fresh {|{"op":"compare","load":"cl_alt","n":2}|})
  in
  Serve.Client.close fresh;
  Alcotest.(check bool) "alive after concurrent fuzz" true (is_ok final);
  finish r;
  List.iter
    (fun (frames, errors, oks, _) ->
      Alcotest.(check bool) "client saw its whole storm" true (frames >= 120);
      Alcotest.(check bool) "hostile frames answered structurally" true
        (errors > 0);
      Alcotest.(check bool) "valid frames served mid-fuzz" true (oks > 0))
    results;
  (* replay: a cold single-domain daemon must reproduce every exact
     answer byte for byte *)
  let pairs = List.concat_map (fun (_, _, _, p) -> p) results in
  Alcotest.(check bool) "harvested exact answers" true (List.length pairs > 100);
  let path1, r1 = start () in
  Fun.protect ~finally:(fun () -> finish r1) @@ fun () ->
  let c1 = connect path1 in
  Fun.protect ~finally:(fun () -> Serve.Client.close c1) @@ fun () ->
  List.iter
    (fun (req, resp) ->
      Alcotest.(check string)
        "single-domain replay byte-identical" resp (request_exn c1 req))
    pairs

(* helpers over the stats response *)
let counter_of stats name =
  match
    member_exn "result" stats |> Obs.Json.member "counters"
    |> Option.map (Obs.Json.member name)
  with
  | Some (Some (Obs.Json.Int v)) -> v
  | _ -> 0

(* Satellite: hammer a 2-worker daemon from 4 client domains and check
   the stats-op ledgers balance — no lost increments across the
   per-domain Obs sinks, every admitted request answered, the cache and
   memo identities exact. *)
let test_race_counter_consistency () =
  let path, r =
    start ~tweak:(fun c -> { c with Serve.Server.domains = 2 }) ()
  in
  Fun.protect ~finally:(fun () -> finish r) @@ fun () ->
  let c0 = connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c0) @@ fun () ->
  let stats0 = json_of (request_exn c0 {|{"op":"stats"}|}) in
  let requests0 = counter_of stats0 "serve.requests" in
  let responses0 = counter_of stats0 "serve.responses" in
  let dispatched0 = counter_of stats0 "serve.dispatched" in
  let dropped0 = counter_of stats0 "serve.dropped_responses" in
  let worker ci () =
    let c = connect path in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    for i = 1 to 25 do
      let line =
        if i mod 5 = 0 then {|{"op":"stats"}|}
        else if i mod 2 = 0 then
          Printf.sprintf {|{"id":%d,"op":"schedule","load":"cl_alt","n":2}|}
            ((ci * 100) + i)
        else
          Printf.sprintf {|{"id":%d,"op":"compare","load":"cl_alt","n":2}|}
            ((ci * 100) + i)
      in
      let j = json_of (request_exn c line) in
      if not (is_ok j) then Alcotest.failf "hammer request failed: %s" line
    done
  in
  List.iter Domain.join (List.init 4 (fun ci -> Domain.spawn (worker ci)));
  (* a fresh query overlapping the hammered load: its search must find
     the shared memo warm (cache key differs, exact values do not) *)
  let extra =
    json_of
      (request_exn c0
         {|{"id":999,"op":"compare","load":"cl_alt","n":2,"max_segments":100000000}|})
  in
  Alcotest.(check bool) "overlapping query exact" true
    (is_ok extra && not (is_degraded extra));
  let stats1 = json_of (request_exn c0 {|{"op":"stats"}|}) in
  let d name v0 = counter_of stats1 name - v0 in
  (* the ledger balances: every counted request got exactly one counted
     response (the stats op's own request/response off-by-ones cancel
     between two quiesced snapshots) *)
  Alcotest.(check int)
    "requests = responses, no lost increments"
    (d "serve.requests" requests0)
    (d "serve.responses" responses0);
  Alcotest.(check int) "nothing dropped" 0
    (d "serve.dropped_responses" dropped0);
  (* 4 clients x 20 non-stats requests, each dispatched to a worker
     domain exactly once, plus the overlapping extra *)
  Alcotest.(check int) "dispatched exactly the admitted work" 81
    (d "serve.dispatched" dispatched0);
  Alcotest.(check int) "cache ledger: lookups = hits + misses"
    (sub_int stats1 "cache" "lookups")
    (sub_int stats1 "cache" "hits" + sub_int stats1 "cache" "misses");
  Alcotest.(check int) "memo ledger: lookups = hits + misses"
    (sub_int stats1 "memo" "lookups")
    (sub_int stats1 "memo" "hits" + sub_int stats1 "memo" "misses");
  Alcotest.(check int) "memo ledger: entries = insertions - evictions"
    (sub_int stats1 "memo" "entries")
    (sub_int stats1 "memo" "insertions" - sub_int stats1 "memo" "evictions");
  Alcotest.(check bool) "shared memo was hit across requests" true
    (sub_int stats1 "memo" "hits" > 0);
  match member_exn "result" stats1 |> Obs.Json.member "domains" with
  | Some (Obs.Json.Int d) -> Alcotest.(check int) "reported domains" 2 d
  | _ -> Alcotest.fail "stats lacks result.domains"

(* Satellite (with the fix it pins): draining shutdown with requests in
   flight on worker domains — every accepted request is answered or
   shed with a structured error; none vanishes, even when the drain
   deadline expires mid-computation. *)
let test_drain_multidomain_inflight () =
  let path, r =
    start
      ~tweak:(fun c ->
        { c with Serve.Server.domains = 2; drain_deadline_s = 0.15 })
      ()
  in
  let c = connect path in
  let n = 10 in
  let buf = Buffer.create 1024 in
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf
         {|{"id":%d,"op":"schedule","spec":"repeat %d (job 0.25 1; idle 2)","n":2}|}
         i (30 + i));
    Buffer.add_char buf '\n'
  done;
  Serve.Client.send_raw c (Buffer.contents buf);
  (* let the loop admit the burst, then pull the plug with most of it
     queued or mid-flight on the workers *)
  Unix.sleepf 0.05;
  Guard.Cancel.cancel r.stop;
  let answered = ref 0 and served = ref 0 and shed = ref 0 in
  for _ = 1 to n do
    match Serve.Client.recv_line c with
    | Error e ->
        Alcotest.failf "a request vanished in the drain: %s"
          (Guard.Error.to_string e)
    | Ok line ->
        incr answered;
        let j = json_of line in
        if is_ok j then incr served
        else begin
          incr shed;
          (* drain-deadline sheds carry the retry hint; pre-admission
             refusals carry the shutting-down taxonomy — both are
             answers, and anything else is a bug *)
          match Obs.Json.member "retry_after_ms" j with
          | Some (Obs.Json.Int ms) ->
              Alcotest.(check bool) "positive retry hint" true (ms > 0)
          | _ -> (
              match member_exn "error" j |> Obs.Json.member "what" with
              | Some (Obs.Json.String _) -> ()
              | _ -> Alcotest.failf "shed without taxonomy: %s" line)
        end
  done;
  let outcome = Domain.join r.handle in
  Serve.Client.close c;
  Alcotest.(check int) "every accepted request answered" n !answered;
  Alcotest.(check bool) "drained, not aborted" false
    outcome.Serve.Server.aborted;
  Alcotest.(check bool) "some requests were served before the deadline" true
    (!served >= 1)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "10k hostile frames" `Slow test_fuzz_10k_frames;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "anytime under budget" `Quick
            test_deadline_anytime;
          Alcotest.test_case "shed and degrade under overload" `Quick
            test_overload_shed_and_degrade;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "draining shutdown" `Quick test_drain_shutdown;
          Alcotest.test_case "warm restart bit-identical" `Quick
            test_cache_warm_restart_identical;
          Alcotest.test_case "exact keys for near-twin specs" `Quick
            test_spec_keys_exact;
          Alcotest.test_case "hostile search capped" `Quick
            test_hostile_search_capped;
          Alcotest.test_case "capped compare floored by its best row" `Quick
            test_capped_compare_floored;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4-client fuzz, single-domain replay" `Slow
            test_concurrent_fuzz_and_replay;
          Alcotest.test_case "counter consistency under 4-client race" `Quick
            test_race_counter_consistency;
          Alcotest.test_case "drain with in-flight multi-domain work" `Quick
            test_drain_multidomain_inflight;
        ] );
    ]
