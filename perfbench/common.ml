(* Shared machinery of the benchmark: the monotonic clock, order
   statistics, failure accounting, the refusal of environment knobs
   that change the measured program, host facts, the ALU probe, the
   layer ledger and the result line. *)

module Json = Obs.Json

(* ---------------------------------------------------------------- *)
(* Clock                                                            *)
(* ---------------------------------------------------------------- *)

(* CLOCK_MONOTONIC in seconds.  [Obs.now_ns] is wall-clock
   [gettimeofday], which can step; every duration here comes from
   this clock instead. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---------------------------------------------------------------- *)
(* Order statistics                                                 *)
(* ---------------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5
let minimum a = Array.fold_left Float.min infinity a
let sum a = Array.fold_left ( +. ) 0.0 a

(* A failed operation has no time: it is recorded as [infinity], which
   the fastest repetition passes over and [finite] drops. *)
let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a))

(* Per-item fastest repetition: [reps.(r).(i)] is item [i]'s time in
   pass [r]; every pass replays identical work, so the minimum over
   passes is the item's time with host slow stretches rejected. *)
let fastest_per_item reps =
  match reps with
  | [] -> [||]
  | first :: _ ->
      Array.init (Array.length first) (fun i ->
          List.fold_left (fun m r -> Float.min m r.(i)) infinity reps)

(* ---------------------------------------------------------------- *)
(* Failure accounting                                               *)
(* ---------------------------------------------------------------- *)

(* Every checked output is one attempted operation; a mismatch or an
   exception is one failed operation.  The first few failures are
   kept for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail t what =
  t.failed <- t.failed + 1;
  if List.length t.notes < 8 then t.notes <- what :: t.notes

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then fail t what

(* Run [f] as one attempted operation; an escaping exception counts
   as its failure and yields [None]. *)
let guarded t what f =
  match f () with
  | v -> Some v
  | exception e ->
      t.attempted <- t.attempted + 1;
      fail t (Printf.sprintf "%s: %s" what (Printexc.to_string e));
      None

(* ---------------------------------------------------------------- *)
(* Environment and host                                             *)
(* ---------------------------------------------------------------- *)

(* Each of these changes the program under measurement: the first two
   switch off the bound and batch paths, the third retunes the
   runtime. *)
let refused_env = [ "BATSCHED_NO_BOUNDS"; "BATSCHED_NO_BATCH"; "OCAMLRUNPARAM" ]

let check_env () =
  match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
  | [] -> ()
  | set ->
      Printf.eprintf
        "perfbench: refusing to run with %s set: it changes the program \
         being measured\n\
         %!"
        (String.concat ", " set);
      exit 2

(* Runtime output (daemon sockets, Chrome traces) goes under the
   checkout, in a directory the repository ignores. *)
let state_dir () =
  let d = ".perfbench" in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let lines s = String.split_on_char '\n' s

let field_after_colon line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

(* The value of the first [key:] line of a /proc file. *)
let proc_field path key =
  match read_file path with
  | None -> None
  | Some s ->
      Option.map field_after_colon
        (List.find_opt (String.starts_with ~prefix:key) (lines s))

let cpu_model () =
  Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name")

(* The host's processors, whatever CPUs this process may run on (see
   [cpus_allowed]); 0 when /proc/cpuinfo cannot be read. *)
let nproc () =
  match read_file "/proc/cpuinfo" with
  | None -> 0
  | Some s ->
      List.length
        (List.filter (String.starts_with ~prefix:"processor") (lines s))

(* The CPUs this process (and the daemon it spawns) may run on. *)
let cpus_allowed () =
  Option.value ~default:"unknown"
    (proc_field "/proc/self/status" "Cpus_allowed_list")

let loadavg () =
  match read_file "/proc/loadavg" with
  | None -> "unknown"
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
      | _ -> String.trim s)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match proc_field path "VmHWM:" with
  | None -> nan
  | Some v -> float_of_int (Scanf.sscanf v "%d" Fun.id) /. 1024.0

(* A fixed integer loop whose work never changes: its time tracks the
   host's speed alone, so a slow host phase shows up as a slow probe.
   Taken between passes (see [settle]), in milliseconds. *)
let alu_probe () =
  let x = ref 1 in
  let (), dt =
    time (fun () ->
        for i = 1 to 2_000_000 do
          x := ((!x * 1103515245) + i) land 0xFFFFFFF
        done)
  in
  ignore (Sys.opaque_identity !x);
  dt *. 1000.0

let probes = ref []

(* Between passes, outside every timed span: one ALU probe, then a
   full major collection, so each pass starts from a compacted heap
   rather than from its predecessor's garbage. *)
let settle () =
  probes := alu_probe () :: !probes;
  Gc.full_major ()

(* Repeats [pass] until [seconds] have elapsed, at least once, settling
   before each pass.  [check ~first p] checks a pass's outputs against
   the run's first pass ([None] for the first pass itself).  The passes,
   in order. *)
let repeat ~seconds ~check pass =
  let deadline = now () +. seconds in
  let rec go first acc =
    if Option.is_some first && now () >= deadline then List.rev acc
    else begin
      settle ();
      let p = pass () in
      check ~first p;
      go (match first with None -> Some p | f -> f) (p :: acc)
    end
  in
  go None []

type gc_delta = { minor_words : float; major_collections : int }

let gc_measure f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* ---------------------------------------------------------------- *)
(* Metrics, ledger and the result line                              *)
(* ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* A ledger row: one layer's share of a pass, in milliseconds.  The
   rows of a workload plus its residual add up to the pass time. *)
type ledger = { pass_ms : float; rows : (string * float) list }

let ledger ~pass_ms rows =
  let covered = List.fold_left (fun a (_, v) -> a +. v) 0.0 rows in
  { pass_ms; rows = rows @ [ ("residual", pass_ms -. covered) ] }

let print_ledger title l =
  Printf.printf "ledger (%s): pass %.3f ms\n" title l.pass_ms;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-28s %12.3f ms %6.1f%%\n" name v
        (100.0 *. v /. l.pass_ms))
    l.rows;
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 l.rows in
  Printf.printf "  %-28s %12.3f ms (pass %.3f ms)\n%!" "sum" total l.pass_ms

(* Register a span around a call into a layer, so the traced run's
   Chrome trace shows the benchmark's view of each layer. *)
let spans : (string, Obs.span) Hashtbl.t = Hashtbl.create 16

let span name f =
  let sp =
    match Hashtbl.find_opt spans name with
    | Some s -> s
    | None ->
        let s = Obs.span ("perfbench." ^ name) in
        Hashtbl.add spans name s;
        s
  in
  Obs.time sp f

(* Every per-layer metric, in the order the traced run prints them,
   with its unit and direction.  A workload reports the layers it
   exercises; the others are idle in it and read 0. *)
let per_layer_metrics =
  [
    ("pass_ms", "ms", "lower");
    ("ledger.residual_ms", "ms", "lower");
    ("trace.overhead_pct", "%", "lower");
    ("loads.compile_ms", "ms", "lower");
    ("optimal.search_ms", "ms", "lower");
    ("optimal.segments_per_ms", "1/ms", "higher");
    ("optimal.segments", "count", "lower");
    ("optimal.positions", "count", "lower");
    ("optimal.memo_hits", "count", "higher");
    ("bound.cuts", "count", "higher");
    ("bound.segment_ratio", "ratio", "higher");
    ("bound.net_ms", "ms", "lower");
    ("horizon.decide_ms", "ms", "lower");
    ("horizon.decisions", "count", "lower");
    ("horizon.plans", "count", "lower");
    ("horizon.replans", "count", "lower");
    ("horizon.sim_ms", "ms", "lower");
    ("stoch.sample_ms", "ms", "lower");
    ("batch.run_ms", "ms", "lower");
    ("batch.steps", "count", "lower");
    ("batch.steps_per_ms", "1/ms", "higher");
    ("batch.scalar_lanes", "count", "lower");
    ("montecarlo.reduce_ms", "ms", "lower");
    ("gc.minor_mwords", "Mwords", "lower");
    ("gc.major_collections", "count", "lower");
    ("protocol.parse_us", "us", "lower");
    ("protocol.encode_us", "us", "lower");
    ("cache.find_us", "us", "lower");
    ("cache.hit_ratio", "ratio", "higher");
    ("memo.hit_ratio", "ratio", "higher");
    ("compute.schedule_ms", "ms", "lower");
    ("compute.compare_ms", "ms", "lower");
    ("compute.montecarlo_ms", "ms", "lower");
    ("compute.ensemble_ms", "ms", "lower");
    ("serve.residual_us", "us", "lower");
    ("serve.degraded", "count", "lower");
    ("serve.malformed", "count", "lower");
    ("serve.shed", "count", "lower");
  ]

(* The traced run's metric list: the workload's values, 0 for the
   layers it leaves idle, and the ledger's pass time, residual and the
   tracing overhead. *)
let per_layer_result l ~overhead values =
  let values =
    ("pass_ms", l.pass_ms)
    :: ("ledger.residual_ms", List.assoc "residual" l.rows)
    :: ("trace.overhead_pct", overhead)
    :: values
  in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun (m, _, _) -> m = n) per_layer_metrics) then
        invalid_arg ("unknown per-layer metric " ^ n))
    values;
  List.map
    (fun (name, unit_, _) ->
      metric name unit_
        (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer_metrics

(* A metric that has no value (every operation it times failed) is
   [null]: the run is then not correct anyway. *)
let number v =
  if not (Float.is_finite v) then Json.Null
  else if Float.is_integer v && Float.abs v < 1e15 then
    Json.Int (int_of_float v)
  else Json.Float v

let result_line ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj
                      [
                        ("value", number m.value);
                        ("unit", Json.String m.unit_);
                      ]
                  ))
                metrics) );
       ])
