(* Workload [serve]: the daemon that serves both.

   Each pass starts a fresh [batsched serve] at its defaults (inline
   dispatch, in-memory cache, default cache and memo bounds) and
   replays one seeded request stream over one connection, closed loop,
   one request in flight — the way [batsched call] and other waiting
   callers drive it. *)

open Common

(* ---------------------------------------------------------------- *)
(* The request stream                                               *)
(* ---------------------------------------------------------------- *)

type kind = Cold | Repeat | Budgeted | Malformed

type frame = { line : string; kind : kind; op : string }

(* Table 5 loads whose exact search takes milliseconds; ILs 250 and
   ILl 250 take a quarter second and more, and would turn single
   requests into the whole pass. *)
let named_loads =
  [ "cl_250"; "cl_500"; "cl_alt"; "ils_500"; "ils_alt"; "ils_r1"; "ils_r2";
    "ill_500" ]

(* Sizes: 408 cold requests, each followed by one or two repeats, so
   about 60 % of the 1040 frames are cache hits and set the median;
   the 40 Monte Carlo requests are the costliest family by a margin
   and set the 99th percentile. *)
let spec_requests = 320
let mc_requests = 40
let mc_samples = 160
let ens_requests = 32
let budgeted_requests = 12
let malformed_frames =
  [
    "{\"op\":";
    "not json at all";
    "[1,2,3]";
    "{\"op\":\"nope\"}";
    "{\"op\":\"schedule\",\"load\":\"no_such_load\"}";
    "{\"op\":\"schedule\",\"spec\":\"job -1 1\"}";
    "{\"op\":\"montecarlo\",\"samples\":0}";
    "{\"op\":\"compare\",\"load\":\"cl_alt\",\"spec\":\"idle 1\"}";
  ]

(* A 2xB1 load of 30 intermitted jobs at 0.5/0.75 A: the bank is dead
   long before its end, so every exact answer exists, and the search
   costs under half a millisecond with no tail, so the costliest cold
   schedules are the named loads whatever the seed. *)
let spec_of seed =
  Loads.Spec.to_string
    (Loads.Random_load.intermitted ~seed ~jobs:30 ~currents:[| 0.5; 0.75 |] ())

let build_stream ~seed =
  let root = Int64.of_int seed in
  let rng = Prng.Splitmix.create (Prng.Splitmix.split root 1) in
  let id = ref 0 in
  let frame kind op body =
    incr id;
    let line =
      if kind = Malformed then body
      else Printf.sprintf "{\"id\":%d,%s}" !id body
    in
    { line; kind; op }
  in
  let cold = ref [] in
  List.iter
    (fun l ->
      List.iter
        (fun op ->
          cold :=
            (op, Printf.sprintf "\"op\":%S,\"load\":%S,\"n\":2" op l) :: !cold)
        [ "schedule"; "compare" ])
    named_loads;
  for i = 0 to spec_requests - 1 do
    let op = if i mod 2 = 0 then "schedule" else "compare" in
    cold :=
      ( op,
        Printf.sprintf "\"op\":%S,\"spec\":%S,\"n\":2" op
          (spec_of (Prng.Splitmix.split root (100 + i))) )
      :: !cold
  done;
  for i = 0 to mc_requests - 1 do
    cold :=
      ( "montecarlo",
        Printf.sprintf
          "\"op\":\"montecarlo\",\"seed\":%d,\"samples\":%d,\"slots\":40"
          ((seed * 1000) + i) mc_samples )
      :: !cold
  done;
  for i = 0 to ens_requests - 1 do
    cold :=
      ( "ensemble",
        Printf.sprintf
          "\"op\":\"ensemble\",\"seed\":%d,\"loads\":4,\"jobs_per_load\":20,\
           \"include_optimal\":false"
          ((seed * 1000) + i) )
      :: !cold
  done;
  let budgeted =
    List.init budgeted_requests (fun i ->
        Printf.sprintf
          "\"op\":\"schedule\",\"spec\":%S,\"n\":2,\"max_segments\":1"
          (spec_of (Prng.Splitmix.split root (5000 + i))))
  in
  (* shuffle the cold requests, then interleave them with repeats of
     earlier answers (about half the stream), the budgeted frames and
     the malformed ones at seeded positions *)
  let cold = Array.of_list (List.rev !cold) in
  let swap i j =
    let t = cold.(i) in
    cold.(i) <- cold.(j);
    cold.(j) <- t
  in
  for i = Array.length cold - 1 downto 1 do
    swap i (Prng.Splitmix.int rng (i + 1))
  done;
  (* A named load's [schedule] always precedes its [compare]: both
     search the same load through the daemon's shared memo, so the
     second is cheaper, and a seed-dependent order would make the cost
     of the cold schedule frames depend on the seed. *)
  List.iter
    (fun l ->
      let at op =
        let body = Printf.sprintf "\"op\":%S,\"load\":%S,\"n\":2" op l in
        let rec find i = if snd cold.(i) = body then i else find (i + 1) in
        find 0
      in
      let s = at "schedule" and c = at "compare" in
      if c < s then swap s c)
    named_loads;
  let out = ref [] in
  let budgeted = ref budgeted and malformed = ref malformed_frames in
  Array.iteri
    (fun i (op, body) ->
      out := frame Cold op body :: !out;
      (* one or two repeats of earlier requests after each cold one *)
      for _ = 1 to 1 + (i mod 2) do
        let op, body = cold.(Prng.Splitmix.int rng (i + 1)) in
        out := frame Repeat op body :: !out
      done;
      if i mod 20 = 10 then begin
        (match !budgeted with
        | b :: rest ->
            out := frame Budgeted "schedule" b :: !out;
            budgeted := rest
        | [] -> ());
        match !malformed with
        | m :: rest ->
            out := frame Malformed "malformed" m :: !out;
            malformed := rest
        | [] -> ()
      end)
    cold;
  Array.of_list (List.rev !out)

(* ---------------------------------------------------------------- *)
(* The daemon                                                       *)
(* ---------------------------------------------------------------- *)

let daemon_exe = "_build/default/bin/batsched.exe"
let live : int list ref = ref []

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter stop_daemon !live)

(* Connect to a freshly spawned daemon, polling every millisecond. *)
let connect path =
  let deadline = now () +. 20.0 in
  let rec go () =
    match Serve.Client.connect path with
    | Ok c -> c
    | Error e ->
        if now () > deadline then Guard.Error.raise_exn e
        else begin
          Unix.sleepf 0.001;
          go ()
        end
  in
  go ()

let request c line =
  match Serve.Client.request c line with
  | Ok r -> r
  | Error e -> Guard.Error.raise_exn e

let start_daemon ~traced =
  let path =
    Printf.sprintf "%s/serve-%d.sock" (state_dir ()) (Unix.getpid ())
  in
  (try Sys.remove path with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [ daemon_exe; "serve"; "--socket"; path ]
    @ if traced then [ "--stats" ] else []
  in
  let pid =
    Unix.create_process daemon_exe (Array.of_list args) devnull devnull
      devnull
  in
  Unix.close devnull;
  live := pid :: !live;
  let c = connect path in
  ignore (request c "{\"op\":\"stats\"}");
  (pid, c)

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)

let int_at j p = match path j p with Some (Json.Int n) -> n | _ -> 0

(* ---------------------------------------------------------------- *)
(* One pass                                                         *)
(* ---------------------------------------------------------------- *)

type pass = {
  setup_s : float;
  replay_s : float;
  pass_s : float;
  latency : float array;  (* per frame, seconds; infinity if unanswered *)
  responses : (string, string) result array;  (* the line, or why none *)
  stats : Json.t;  (* the daemon's stats op after the replay, or Null *)
  rss_mb : float;  (* the daemon's peak resident set *)
}

let run_pass ?(traced = false) ~seed () =
  let t0 = now () in
  let stream = build_stream ~seed in
  let pid, c = start_daemon ~traced in
  let t_setup = now () in
  let latency = Array.make (Array.length stream) infinity in
  (* Each frame is one operation: a daemon that stops answering fails
     the frames it leaves unanswered, and the pass goes on. *)
  let responses =
    Array.mapi
      (fun i f ->
        let s = now () in
        match Serve.Client.request c f.line with
        | Ok r ->
            latency.(i) <- now () -. s;
            Ok r
        | Error e -> Error (Guard.Error.to_string e))
      stream
  in
  let t_end = now () in
  let stats =
    match Serve.Client.request c "{\"op\":\"stats\"}" with
    | Ok line -> Result.value ~default:Json.Null (Json.of_string line)
    | Error _ -> Json.Null
  in
  let rss_mb = peak_rss_mb (Some pid) in
  Serve.Client.close c;
  stop_daemon pid;
  ( stream,
    {
      setup_s = t_setup -. t0;
      replay_s = t_end -. t_setup;
      pass_s = t_end -. t0;
      latency;
      responses;
      stats;
      rss_mb;
    } )

(* ---------------------------------------------------------------- *)
(* Checks                                                           *)
(* ---------------------------------------------------------------- *)

let check_pass tally ~first stream p =
  Array.iteri
    (fun i f ->
      let what = Printf.sprintf "serve: frame %d (%s)" i f.op in
      match p.responses.(i) with
      | Error e -> check tally (what ^ ": no response: " ^ e) false
      | Ok r -> (
          let j = Result.to_option (Json.of_string r) in
          let member k = Option.bind j (Json.member k) in
          let ok = member "ok" = Some (Json.Bool true) in
          let degraded = member "degraded" = Some (Json.Bool true) in
          check tally (what ^ " was shed") (member "retry_after_ms" = None);
          (match f.kind with
          | Malformed ->
              check tally (what ^ ": no structured error")
                ((not ok) && member "error" <> None)
          | Budgeted -> check tally (what ^ ": not degraded") (ok && degraded)
          | Cold | Repeat ->
              check tally (what ^ " failed or degraded") (ok && not degraded));
          match first with
          | Some { responses; _ } -> (
              match responses.(i) with
              | Ok r0 ->
                  check tally (what ^ ": response differs between passes")
                    (String.equal r r0)
              | Error _ -> ())
          | None -> ()))
    stream;
  let repeats =
    Array.fold_left (fun a f -> if f.kind = Repeat then a + 1 else a) 0 stream
  in
  check tally "serve: repeats were not answered from the cache"
    (int_at p.stats [ "result"; "cache"; "hits" ] >= repeats)

(* ---------------------------------------------------------------- *)
(* Untimed run: the end-to-end metrics                              *)
(* ---------------------------------------------------------------- *)

let mc_traces = mc_samples * List.length Sched.Montecarlo.default_policies

let summarise stream passes =
  let fastest = fastest_per_item (List.map (fun p -> p.latency) passes) in
  (* the answered frames' fastest repetitions *)
  let select pred =
    finite
      (Array.of_list
         (List.filteri (fun i _ -> pred stream.(i)) (Array.to_list fastest)))
  in
  let answered = select (fun _ -> true) in
  let mc = select (fun f -> f.op = "montecarlo" && f.kind = Cold) in
  let arr f = Array.of_list (List.map f passes) in
  (* the stream's time as the sum of each frame's fastest repetition *)
  let best = sum answered in
  Printf.printf "serve: %d passes of %d frames (%d montecarlo cold)\n"
    (List.length passes) (Array.length stream) (Array.length mc);
  [
    metric "setup_s" "s" (minimum (arr (fun p -> p.setup_s)));
    metric "peak_rss_mb" "MiB" (median (finite (arr (fun p -> p.rss_mb))));
    metric "solve_s" "s" best;
    (* every frame asks the daemon for a decision; the cold schedule
       frames alone are too few for a steady 99th percentile *)
    metric "decision_us_p50" "us" (1e6 *. quantile answered 0.5);
    metric "decision_us_p99" "us" (1e6 *. quantile answered 0.99);
    metric "traces_per_s" "1/s"
      (float_of_int (mc_traces * Array.length mc) /. sum mc);
    metric "throughput_per_s" "1/s"
      (float_of_int (Array.length answered) /. best);
    metric "latency_p50_ms" "ms" (1e3 *. quantile answered 0.5);
    metric "latency_p99_ms" "ms" (1e3 *. quantile answered 0.99);
  ]

let end_to_end tally ~seed ~seconds =
  let runs =
    repeat ~seconds
      ~check:(fun ~first (s, p) ->
        check_pass tally ~first:(Option.map snd first) s p)
      (fun () -> run_pass ~seed ())
  in
  summarise (fst (List.hd runs)) (List.map snd runs)

(* ---------------------------------------------------------------- *)
(* Traced run: where a request's time goes                          *)
(* ---------------------------------------------------------------- *)

(* The daemon's defaults: its memo bound and planner window, so that
   the bench-side compute path below does the daemon's work. *)
let daemon_defaults = Serve.Server.default_config ~socket_path:""

(* The library calls each cold request maps to in the daemon, made
   from the benchmark: the same search, policy and estimation entry
   points over a memo store of the daemon's default size. *)
let compute memo (req : Serve.Protocol.request) =
  let module P = Serve.Protocol in
  let budget = P.budget_of_request req in
  let disc_of = function
    | P.B1 -> Dkibam.Discretization.paper_b1
    | P.B2 -> Dkibam.Discretization.paper_b2
  in
  let arrays_of (t : P.target) =
    match t.P.load with
    | P.Named n -> Batsched.Experiments.arrays_of n
    | P.Spec (epochs, _) ->
        Loads.Arrays.make ~time_step:Batsched.Experiments.time_step
          ~charge_unit:Batsched.Experiments.charge_unit epochs
  in
  match req.P.query with
  | P.Schedule t ->
      ignore
        (Sched.Optimal.search ?budget ~shared:memo ~n_batteries:t.P.n_batteries
           (disc_of t.P.battery) (arrays_of t))
  | P.Compare t ->
      let disc = disc_of t.P.battery and arrays = arrays_of t in
      let shared =
        Sched.Memo.scope memo
          ~fingerprint:
            (Digest.to_hex
               (Digest.string
                  (Marshal.to_string ("plan", t.P.load, t.P.battery) [])))
      in
      List.iter
        (fun policy ->
          ignore
            (Sched.Simulator.lifetime ~n_batteries:t.P.n_batteries ~policy disc
               arrays))
        [
          Sched.Policy.Sequential;
          Sched.Policy.Round_robin;
          Sched.Policy.Best_of;
          Sched.Horizon.policy ~shared
            ~k:daemon_defaults.Serve.Server.degrade_horizon_k ();
        ];
      ignore
        (Sched.Optimal.search ?budget ~shared:memo ~n_batteries:t.P.n_batteries
           disc arrays)
  | P.Montecarlo (t, p) ->
      ignore
        (Sched.Montecarlo.run ?budget ?deadline_min:p.P.mc_deadline_min
           ~n_batteries:t.P.n_batteries ~seed:(Int64.of_int p.P.mc_seed)
           ~samples:p.P.mc_samples
           (Sched.Montecarlo.Onoff (Stoch.Onoff.make ~slots:p.P.mc_slots ()))
           (disc_of t.P.battery))
  | P.Ensemble (t, p) ->
      ignore
        (Sched.Ensemble.run ?budget ~seed:(Int64.of_int p.P.ens_seed)
           ~n_loads:p.P.ens_loads ~jobs_per_load:p.P.ens_jobs_per_load
           ~n_batteries:t.P.n_batteries ~include_optimal:p.P.ens_include_optimal
           (disc_of t.P.battery) ())
  | P.Stats -> ()

(* The result payload and degradation reason of a success line, so the
   encoder can be timed on the very bytes the daemon produced. *)
let payload_of line =
  let marker = "\"result\":" in
  let n = String.length marker in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = marker then Some (i + n)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      Some (String.sub line start (String.length line - start - 1))

(* Replays one pass's frames through the benchmark-side protocol,
   cache and compute layers: per-frame parse, find, encode and compute
   times (compute is 0 for the frames the cache answers). *)
let layer_replay stream responses =
  let module P = Serve.Protocol in
  let n = Array.length stream in
  let parse_t = Array.make n 0.0
  and find_t = Array.make n 0.0
  and encode_t = Array.make n 0.0
  and compute_t = Array.make n 0.0 in
  let cache, _ = Serve.Cache.create () in
  let memo =
    Sched.Memo.create
      ~capacity:daemon_defaults.Serve.Server.memo_max_entries ()
  in
  Array.iteri
    (fun i f ->
      let parsed, dt =
        time (fun () ->
            span "protocol.parse" (fun () ->
                match P.parse_request f.line with
                | Ok req -> Ok (req, P.cache_key req)
                | Error e -> Error e))
      in
      parse_t.(i) <- dt;
      let resp = responses.(i) in
      match parsed with
      | Error (id, e) ->
          let _, dt =
            time (fun () ->
                span "protocol.encode" (fun () -> P.error_response ~id e))
          in
          encode_t.(i) <- dt
      | Ok (req, key) ->
          let hit, dt =
            time (fun () ->
                span "cache.find" (fun () ->
                    Option.bind key (Serve.Cache.find cache)))
          in
          find_t.(i) <- dt;
          if hit = None then begin
            let (), dt =
              time (fun () ->
                  span ("compute." ^ f.op) (fun () -> compute memo req))
            in
            compute_t.(i) <- dt
          end;
          let payload = Option.value ~default:"{}" (payload_of resp) in
          let degraded =
            match Option.bind (Result.to_option (Json.of_string resp))
                    (Json.member "degraded_reason") with
            | Some (Json.String r) -> Some r
            | _ -> None
          in
          if hit = None && degraded = None then
            Option.iter (fun k -> Serve.Cache.add cache k payload) key;
          let _, dt =
            time (fun () ->
                span "protocol.encode" (fun () ->
                    P.ok_response ~id:req.P.id ?degraded payload))
          in
          encode_t.(i) <- dt)
    stream;
  (parse_t, find_t, encode_t, compute_t)

let per_layer tally ~seed ~seconds =
  (* untraced and traced passes alternate, so the overhead compares
     like with like *)
  let runs =
    repeat ~seconds
      ~check:(fun ~first ((s, u), (_, t)) ->
        let first = Option.map (fun ((_, f), _) -> f) first in
        check_pass tally ~first s u;
        check_pass tally ~first:(Some (Option.value first ~default:u)) s t)
      (fun () ->
        let u = run_pass ~seed () in
        settle ();
        (u, run_pass ~traced:true ~seed ()))
  in
  let stream = fst (fst (List.hd runs)) in
  let untraced = List.map (fun ((_, u), _) -> u) runs in
  let traced = List.map (fun (_, (_, t)) -> t) runs in
  let sorted_t =
    List.sort (fun a b -> Float.compare a.replay_s b.replay_s) traced
  in
  let p = List.nth sorted_t (List.length sorted_t / 2) in
  let answers = Array.map (Result.value ~default:"") p.responses in
  (* Eight replays with Obs off give each layer's per-frame fastest
     time, the statistic the pass time uses too; a ninth, traced, feeds
     the Chrome trace. *)
  let replays =
    List.init 8 (fun _ ->
        settle ();
        layer_replay stream answers)
  in
  let fastest_of f = fastest_per_item (List.map f replays) in
  let parse_t = fastest_of (fun (a, _, _, _) -> a)
  and find_t = fastest_of (fun (_, b, _, _) -> b)
  and encode_t = fastest_of (fun (_, _, c, _) -> c)
  and compute_t = fastest_of (fun (_, _, _, d) -> d) in
  settle ();
  Obs.reset ();
  Obs.enable ~trace:true ();
  ignore (layer_replay stream answers);
  Obs.disable ();
  let n = float_of_int (Array.length stream) in
  let us x = 1e6 *. x and ms x = 1e3 *. x in
  let compute_s op =
    let t = ref 0.0 in
    Array.iteri (fun i f -> if f.op = op then t := !t +. compute_t.(i)) stream;
    !t
  in
  (* client latency of the cache hits beyond what the benchmark can
     attribute to parse, find and encode: event loop, admission and
     the socket round trip *)
  let fastest = fastest_per_item (List.map (fun p -> p.latency) traced) in
  let residual =
    let xs = ref [] in
    Array.iteri
      (fun i f ->
        if f.kind = Repeat then
          xs :=
            (fastest.(i) -. parse_t.(i) -. find_t.(i) -. encode_t.(i)) :: !xs)
      stream;
    median (finite (Array.of_list !xs))
  in
  (* hits / lookups of the daemon's response cache or memo store *)
  let ratio store =
    float_of_int (int_at p.stats [ "result"; store; "hits" ])
    /. float_of_int (max 1 (int_at p.stats [ "result"; store; "lookups" ]))
  in
  let counter name =
    float_of_int (int_at p.stats [ "result"; "counters"; name ])
  in
  let overhead =
    100.0
    *. ((minimum (Array.of_list (List.map (fun p -> p.replay_s) traced))
        /. minimum (Array.of_list (List.map (fun p -> p.replay_s) untraced)))
       -. 1.0)
  in
  (* the pass as the end-to-end run sees it: the fastest set-up plus
     the stream's per-frame fastest latencies *)
  let setup_s =
    minimum (Array.of_list (List.map (fun p -> p.setup_s) traced))
  in
  let l =
    ledger ~pass_ms:(ms (setup_s +. sum (finite fastest)))
      [
        ("setup (spawn until stats)", ms setup_s);
        ("protocol parse + encode", ms (sum parse_t +. sum encode_t));
        ("cache find", ms (sum find_t));
        ("compute", ms (sum compute_t));
      ]
  in
  print_ledger "serve; residual = event loop, admission, rendering, socket" l;
  Printf.printf "cache hits %d of %d lookups; memo hits %d of %d lookups\n"
    (int_at p.stats [ "result"; "cache"; "hits" ])
    (int_at p.stats [ "result"; "cache"; "lookups" ])
    (int_at p.stats [ "result"; "memo"; "hits" ])
    (int_at p.stats [ "result"; "memo"; "lookups" ]);
  let budgeted =
    Array.fold_left (fun a f -> if f.kind = Budgeted then a + 1 else a) 0 stream
  in
  check tally "serve: the daemon's degraded count is not the budgeted count"
    (int_of_float (counter "serve.degraded") = budgeted);
  check tally "serve: the daemon shed requests" (counter "serve.shed" = 0.0);
  per_layer_result l ~overhead
    [
      ("protocol.parse_us", us (sum parse_t) /. n);
      ("protocol.encode_us", us (sum encode_t) /. n);
      ("cache.find_us", us (sum find_t) /. n);
      ("cache.hit_ratio", ratio "cache");
      ("memo.hit_ratio", ratio "memo");
      ("compute.schedule_ms", ms (compute_s "schedule"));
      ("compute.compare_ms", ms (compute_s "compare"));
      ("compute.montecarlo_ms", ms (compute_s "montecarlo"));
      ("compute.ensemble_ms", ms (compute_s "ensemble"));
      ("serve.residual_us", us residual);
      ("serve.degraded", counter "serve.degraded");
      ("serve.malformed", counter "serve.malformed");
      ("serve.shed", counter "serve.shed");
    ]
