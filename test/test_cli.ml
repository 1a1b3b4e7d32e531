(* The CLI's exit-code contract, held against the real executable
   (doc/ROBUSTNESS.md): 0 success; 2 validation failure with a
   structured Guard.Error on stderr; 3 budget exhaustion (the printed
   answer is an anytime result, not proven optimal); 124 usage errors,
   from cmdliner.  Tests run in _build/default/test/, so the binary
   sits at ../bin/batsched.exe (declared as a dune dep). *)

let exe = Filename.concat Filename.parent_dir_name "bin/batsched.exe"

let run_status args =
  let cmd =
    Printf.sprintf "%s %s >/dev/null 2>/dev/null" (Filename.quote exe) args
  in
  Sys.command cmd

let check_exit args expected () =
  Alcotest.(check int) (Printf.sprintf "batsched %s" args) expected
    (run_status args)

(* The exit status of [batsched args] and what it wrote to [fd] (1 or
   2); the other stream is discarded. *)
let run_capture args fd =
  let file = Filename.temp_file "batsched_cli" ".out" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let status =
    Sys.command
      (Printf.sprintf "%s %s %d>%s %d>/dev/null" (Filename.quote exe) args fd
         (Filename.quote file) (3 - fd))
  in
  (status, In_channel.with_open_bin file In_channel.input_all)

let stderr_mentions args needle () =
  let status, text = run_capture args 2 in
  Alcotest.(check int) "validation exit" 2 status;
  let has =
    let nl = String.length needle and tl = String.length text in
    let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "stderr of %s mentions %S" args needle)
    true has

(* A capped compare reports its anytime optimum floored by the best
   policy row, and names that row, as the daemon's compare does: on 3xB1
   ILs alt, 100 segments stop the search at 32.26 min, below the
   horizon-4 row's 34.68. *)
let test_capped_compare_floored () =
  let status, text = run_capture "compare --max-segments 100 -n 3 ils_alt" 1 in
  Alcotest.(check int) "budget exit" 3 status;
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "prints %S" line) true
        (List.mem line lines))
    [
      "  horizon-4  :   34.680 min";
      "  optimal    :   34.680 min (floored by the horizon-4 row)";
    ]

(* Each row is (test name, argv tail, expected exit code). *)
let table =
  [
    ("success: analytic lifetime", "lifetime cl_alt", 0);
    ("success: policy schedule", "schedule --policy rr cl_alt", 0);
    ("usage: unknown command", "definitely-not-a-command", 124);
    ("usage: missing load", "lifetime", 124);
    ("validation: unknown battery", "lifetime --battery zz cl_alt", 2);
    ("validation: bad spec", {|compare --spec "repeat -3 (job"|}, 2);
    ("validation: bad budget flag", "schedule --max-segments 0 cl_alt", 2);
    ("budget exhausted: anytime exit", "schedule --max-segments 1 cl_alt", 3);
    ("budget exhausted: compare", "compare --max-segments 1 cl_alt", 3);
    ( "validation: spec too long",
      {|compare --spec "repeat 30000 (repeat 30000 (job 0.5 1))"|},
      2 );
  ]

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        List.map
          (fun (name, args, expected) ->
            Alcotest.test_case name `Quick (check_exit args expected))
          table );
      ( "structured stderr",
        [
          Alcotest.test_case "battery error is a Guard.Error line" `Quick
            (stderr_mentions "lifetime --battery zz cl_alt" "batsched:");
          Alcotest.test_case "budget-flag error names the flag" `Quick
            (stderr_mentions "schedule --max-segments 0 cl_alt"
               "--max-segments");
        ] );
      ( "output",
        [
          Alcotest.test_case "capped compare floored by its best row" `Quick
            test_capped_compare_floored;
        ] );
    ]
