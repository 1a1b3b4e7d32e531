(* Entry point of the benchmark: parses the command line, refuses
   measurement-changing environments, runs one workload and prints the
   result line last. *)

open Common

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable write_reference : bool;
}

let usage =
  "main.exe --workload search|fleet|serve --seed N --seconds S --trace 0|1"

let parse_args () =
  let a =
    { workload = ""; seed = 1; seconds = 10.0; trace = false;
      write_reference = false }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a.workload <- v; go rest
    | "--seed" :: v :: rest -> a.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- float_of_string v; go rest
    | "--trace" :: v :: rest -> a.trace <- (v = "1"); go rest
    | "--write-reference" :: rest -> a.write_reference <- true; go rest
    | [] -> ()
    | x :: _ -> failwith ("unknown argument " ^ x)
  in
  (match go (List.tl (Array.to_list Sys.argv)) with
  | () -> ()
  | exception (Failure msg | Invalid_argument msg) ->
      Printf.eprintf "perfbench: %s\nusage: %s\n" msg usage;
      exit 2);
  a

let run a =
  let tally = Common.tally () in
  let end_to_end, per_layer =
    match a.workload with
    | "search" -> (Bench_search.end_to_end, Bench_search.per_layer)
    | "fleet" -> (Bench_fleet.end_to_end, Bench_fleet.per_layer)
    | "serve" -> (Bench_serve.end_to_end, Bench_serve.per_layer)
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\nusage: %s\n" w usage;
        exit 2
  in
  let metrics =
    if a.trace then begin
      let m = per_layer tally ~seed:a.seed ~seconds:a.seconds in
      let file = Printf.sprintf "%s/trace-%s.json" (state_dir ()) a.workload in
      Obs.write_trace file;
      Printf.printf "Chrome trace: %s\n" file;
      m
    end
    else end_to_end tally ~seed:a.seed ~seconds:a.seconds
  in
  let probes = Array.of_list !probes in
  List.iter (fun n -> Printf.printf "FAILED: %s\n" n) (List.rev tally.notes);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "info",
              Json.Obj
                [
                  ("workload", Json.String a.workload);
                  ("seed", Json.Int a.seed);
                  ("nproc", Json.Int (nproc ()));
                  ("cpus_allowed", Json.String (cpus_allowed ()));
                  ("cpu", Json.String (cpu_model ()));
                  ("ocaml", Json.String Sys.ocaml_version);
                  ("loadavg", Json.String (loadavg ()));
                  ("probes", Json.Int (Array.length probes));
                  ( "alu_probe_ms",
                    Json.Obj
                      [
                        ("min", Json.Float (minimum probes));
                        ("median", Json.Float (median probes));
                        ("max", Json.Float (quantile probes 1.0));
                      ] );
                ] );
          ]));
  print_endline
    (result_line ~attempted:tally.attempted ~failed:tally.failed metrics)

let () =
  let a = parse_args () in
  check_env ();
  (* a daemon that dies mid-stream must surface as failed frames, not
     as a SIGPIPE that kills the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    if a.write_reference then Bench_search.write_reference () else run a
  with
  | () -> ()
  | exception e ->
      (* only set-up can get here (each timed operation is guarded):
         no result line, since a run that could not set up has no
         metrics *)
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
