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

let stderr_mentions args needle () =
  let err = Filename.temp_file "batsched_cli" ".err" in
  Fun.protect ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
  @@ fun () ->
  let cmd =
    Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote exe) args
      (Filename.quote err)
  in
  let status = Sys.command cmd in
  Alcotest.(check int) "validation exit" 2 status;
  let text = In_channel.with_open_bin err In_channel.input_all in
  let has =
    let nl = String.length needle and tl = String.length text in
    let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "stderr of %s mentions %S" args needle)
    true has

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
    ]
