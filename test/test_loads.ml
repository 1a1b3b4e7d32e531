(* Tests for the load library: epoch algebra, the paper's integer array
   encoding (section 4.1), the ten test loads, and the random loads. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Epoch algebra                                                       *)
(* ------------------------------------------------------------------ *)

let test_idle_merging () =
  let l =
    Loads.Epoch.concat [ Loads.Epoch.idle 1.0; Loads.Epoch.idle 2.0; Loads.Epoch.idle 0.5 ]
  in
  check_int "idles merge" 1 (Loads.Epoch.epoch_count l);
  check_float "total" 3.5 (Loads.Epoch.duration l)

let test_jobs_do_not_merge () =
  (* two identical back-to-back jobs are two scheduling points *)
  let j = Loads.Epoch.job ~current:0.5 ~duration:1.0 in
  let l = Loads.Epoch.append j j in
  check_int "two epochs" 2 (Loads.Epoch.epoch_count l);
  check_int "two jobs" 2 (Loads.Epoch.job_count l)

let test_jobs_listing () =
  let l =
    Loads.Epoch.concat
      [
        Loads.Epoch.job ~current:0.5 ~duration:1.0;
        Loads.Epoch.idle 2.0;
        Loads.Epoch.job ~current:0.25 ~duration:0.5;
      ]
  in
  match Loads.Epoch.jobs l with
  | [ (t1, c1, d1); (t2, c2, d2) ] ->
      check_float "job1 start" 0.0 t1;
      check_float "job1 current" 0.5 c1;
      check_float "job1 duration" 1.0 d1;
      check_float "job2 start" 3.0 t2;
      check_float "job2 current" 0.25 c2;
      check_float "job2 duration" 0.5 d2
  | l -> Alcotest.failf "expected 2 jobs, got %d" (List.length l)

let test_epoch_at () =
  let l =
    Loads.Epoch.append (Loads.Epoch.job ~current:0.5 ~duration:1.0) (Loads.Epoch.idle 1.0)
  in
  (match Loads.Epoch.epoch_at l 0.5 with
  | Some (0, Loads.Epoch.Job _) -> ()
  | _ -> Alcotest.fail "expected job at 0.5");
  (match Loads.Epoch.epoch_at l 1.5 with
  | Some (1, Loads.Epoch.Idle _) -> ()
  | _ -> Alcotest.fail "expected idle at 1.5");
  Alcotest.(check bool) "past end" true (Loads.Epoch.epoch_at l 99.0 = None)

let test_to_profile () =
  let l =
    Loads.Epoch.append (Loads.Epoch.job ~current:0.5 ~duration:1.0) (Loads.Epoch.idle 1.0)
  in
  let p = Loads.Epoch.to_profile l in
  check_float "profile duration" 2.0 (Kibam.Load_profile.total_duration p)

let test_truncate () =
  let l = Loads.Epoch.repeat 5 (Loads.Epoch.job ~current:0.5 ~duration:1.0) in
  check_float "truncated" 2.5 (Loads.Epoch.duration (Loads.Epoch.truncate 2.5 l))

let test_validation () =
  let rejects f =
    Alcotest.(check bool) "rejects" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects (fun () -> Loads.Epoch.job ~current:0.0 ~duration:1.0);
  rejects (fun () -> Loads.Epoch.job ~current:0.5 ~duration:0.0);
  rejects (fun () -> Loads.Epoch.idle 0.0)

(* ------------------------------------------------------------------ *)
(* Integer arrays (paper section 4.1)                                  *)
(* ------------------------------------------------------------------ *)

let paper_enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load

let test_arrays_cl_alt () =
  let l = Loads.Testloads.load ~horizon:4.0 Loads.Testloads.CL_alt in
  let a = paper_enc l in
  (* 500 mA: 1 unit per 2 steps; 250 mA: 1 unit per 4 steps *)
  check_int "epoch 0 cur" 1 a.Loads.Arrays.cur.(0);
  check_int "epoch 0 cur_times" 2 a.Loads.Arrays.cur_times.(0);
  check_int "epoch 1 cur_times" 4 a.Loads.Arrays.cur_times.(1);
  check_int "epoch 0 ends at step 100" 100 a.Loads.Arrays.load_time.(0);
  check_int "epoch 1 ends at step 200" 200 a.Loads.Arrays.load_time.(1)

let test_arrays_idle_epochs () =
  let l =
    Loads.Epoch.append (Loads.Epoch.job ~current:0.25 ~duration:1.0) (Loads.Epoch.idle 2.0)
  in
  let a = paper_enc l in
  check_int "idle cur = 0" 0 a.Loads.Arrays.cur.(1);
  check_int "idle length" 200 (Loads.Arrays.epoch_steps a 1)

let test_arrays_current_roundtrip () =
  (* eq. (7) must invert the encoding *)
  let l =
    Loads.Epoch.concat
      [
        Loads.Epoch.job ~current:0.25 ~duration:1.0;
        Loads.Epoch.job ~current:0.5 ~duration:1.0;
        Loads.Epoch.job ~current:0.3 ~duration:1.0;
        Loads.Epoch.job ~current:0.125 ~duration:1.0;
      ]
  in
  let a = paper_enc l in
  List.iteri
    (fun y expected -> check_float "eq (7)" expected (Loads.Arrays.current a y))
    [ 0.25; 0.5; 0.3; 0.125 ]

let test_arrays_not_representable () =
  Alcotest.(check bool)
    "irrational current rejected" true
    (try
       ignore (paper_enc (Loads.Epoch.job ~current:(Float.pi /. 10.0) ~duration:1.0));
       false
     with Loads.Arrays.Not_representable _ -> true)

let test_arrays_off_grid_duration () =
  Alcotest.(check bool)
    "off-grid epoch rejected" true
    (try
       ignore (paper_enc (Loads.Epoch.job ~current:0.25 ~duration:0.0053));
       false
     with Loads.Arrays.Not_representable _ -> true)

let test_arrays_validation () =
  let rejects f =
    Alcotest.(check bool) "rejects" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects (fun () ->
      Loads.Arrays.of_arrays ~time_step:0.01 ~charge_unit:0.01
        ~load_time:[| 10; 10 |] ~cur_times:[| 1; 1 |] ~cur:[| 1; 1 |]);
  rejects (fun () ->
      Loads.Arrays.of_arrays ~time_step:0.01 ~charge_unit:0.01
        ~load_time:[| 10 |] ~cur_times:[| 0 |] ~cur:[| 1 |]);
  rejects (fun () ->
      Loads.Arrays.of_arrays ~time_step:0.01 ~charge_unit:0.01
        ~load_time:[| 10 |] ~cur_times:[| 1; 2 |] ~cur:[| 1 |])

let test_arrays_compatibility_check () =
  let a = paper_enc (Loads.Epoch.job ~current:0.25 ~duration:1.0) in
  Loads.Arrays.check_compatible a ~time_step:0.01 ~charge_unit:0.01;
  Alcotest.(check bool)
    "wrong gamma rejected" true
    (try
       Loads.Arrays.check_compatible a ~time_step:0.01 ~charge_unit:0.005;
       false
     with Invalid_argument _ -> true)

let prop_arrays_duration_consistent =
  QCheck.Test.make ~name:"array epochs partition the load duration" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 8) (pair bool (int_range 1 30)))
    (fun spec ->
      let epochs =
        List.map
          (fun (is_job, tenths) ->
            let duration = float_of_int tenths /. 10.0 in
            if is_job then Loads.Epoch.job ~current:0.25 ~duration
            else Loads.Epoch.idle duration)
          spec
      in
      let l = Loads.Epoch.concat epochs in
      let a = paper_enc l in
      let total_steps =
        List.init (Loads.Arrays.epoch_count a) (Loads.Arrays.epoch_steps a)
        |> List.fold_left ( + ) 0
      in
      Float.abs (float_of_int total_steps *. 0.01 -. Loads.Epoch.duration l) < 1e-6)

(* ------------------------------------------------------------------ *)
(* The load cursor (execution kernel)                                  *)
(* ------------------------------------------------------------------ *)

(* Hand-built encodings at T = Γ = 1 keep the cadence arithmetic legible. *)
let raw ~load_time ~cur_times ~cur =
  Loads.Cursor.make
    (Loads.Arrays.of_arrays ~time_step:1.0 ~charge_unit:1.0 ~load_time
       ~cur_times ~cur)

let check_sched msg (expect : Loads.Cursor.schedule) (got : Loads.Cursor.schedule) =
  check_int (msg ^ " ct") expect.ct got.ct;
  check_int (msg ^ " cur") expect.cur got.cur;
  check_int (msg ^ " draws") expect.draws got.draws;
  check_int (msg ^ " rest") expect.rest got.rest

(* Walk the whole event stream, returning (events, steps at each event). *)
let walk c =
  let rec go pos acc =
    match Loads.Cursor.next c pos with
    | None -> List.rev acc
    | Some (ev, pos') -> go pos' ((ev, Loads.Cursor.step c pos') :: acc)
  in
  go (Loads.Cursor.start c) []

let test_cursor_zero_current_epoch () =
  (* a zero-current epoch yields a single recovery span and no draws *)
  let c = raw ~load_time:[| 10 |] ~cur_times:[| 10 |] ~cur:[| 0 |] in
  Alcotest.(check bool) "idle" true (Loads.Cursor.is_idle c 0);
  check_int "no job schedules" 0 (Loads.Cursor.job_count c);
  check_sched "schedule" { ct = 10; cur = 0; draws = 0; rest = 10 }
    (Loads.Cursor.schedule c 0);
  check_int "no draw units" 0 (Loads.Cursor.draw_units c 0);
  match walk c with
  | [ (Loads.Cursor.Idle 10, 10); (Loads.Cursor.Epoch_end, 10) ] -> ()
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let test_cursor_trailing_rest () =
  (* cadence 4 into a 10-step epoch: two draws, two trailing rest steps *)
  let c = raw ~load_time:[| 10 |] ~cur_times:[| 4 |] ~cur:[| 2 |] in
  Alcotest.(check bool) "not idle" false (Loads.Cursor.is_idle c 0);
  check_sched "schedule" { ct = 4; cur = 2; draws = 2; rest = 2 }
    (Loads.Cursor.schedule c 0);
  check_int "draw units" 4 (Loads.Cursor.draw_units c 0);
  (match walk c with
  | [
   (Loads.Cursor.Idle 4, 4);
   (Loads.Cursor.Draw 2, 4);
   (Loads.Cursor.Idle 4, 8);
   (Loads.Cursor.Draw 2, 8);
   (Loads.Cursor.Idle 2, 10);
   (Loads.Cursor.Epoch_end, 10);
  ] ->
      ()
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs));
  (* a mid-epoch switch-on restarts the cadence: 7 steps left -> 1 draw *)
  check_sched "restart at 3" { ct = 4; cur = 2; draws = 1; rest = 3 }
    (Loads.Cursor.schedule_from c 0 ~local:3);
  (* cadence longer than the remaining span: a draw-free job tail *)
  check_sched "restart at 8" { ct = 4; cur = 2; draws = 0; rest = 2 }
    (Loads.Cursor.schedule_from c 0 ~local:8);
  check_int "bound within 7 steps" 2 (Loads.Cursor.max_draw_units_within c 0 ~steps:7)

let test_cursor_final_step_draw () =
  (* cadence dividing the epoch exactly: the last draw lands on the
     epoch's final step — the go_off/use_charge race documented in
     sched/optimal.mli.  skip_final elides exactly that draw. *)
  let c = raw ~load_time:[| 8 |] ~cur_times:[| 4 |] ~cur:[| 1 |] in
  check_sched "race kept" { ct = 4; cur = 1; draws = 2; rest = 0 }
    (Loads.Cursor.schedule c 0);
  (match walk c with
  | [
   (Loads.Cursor.Idle 4, 4);
   (Loads.Cursor.Draw 1, 4);
   (Loads.Cursor.Idle 4, 8);
   (Loads.Cursor.Draw 1, 8);
   (Loads.Cursor.Epoch_end, 8);
  ] ->
      ()
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs));
  check_sched "race skipped" { ct = 4; cur = 1; draws = 1; rest = 4 }
    (Loads.Cursor.schedule_from ~skip_final:true c 0 ~local:0);
  (* skip_final only fires when the final draw is exactly on the edge *)
  check_sched "no draw on the edge" { ct = 4; cur = 1; draws = 1; rest = 3 }
    (Loads.Cursor.schedule_from ~skip_final:true c 0 ~local:1)

let test_cursor_geometry_and_suffix () =
  let c =
    raw ~load_time:[| 10; 14; 26 |] ~cur_times:[| 2; 4; 3 |] ~cur:[| 1; 0; 2 |]
  in
  check_int "epochs" 3 (Loads.Cursor.epoch_count c);
  check_int "jobs" 2 (Loads.Cursor.job_count c);
  check_int "start 1" 10 (Loads.Cursor.epoch_start c 1);
  check_int "end 1" 14 (Loads.Cursor.epoch_end c 1);
  check_int "len 2" 12 (Loads.Cursor.epoch_len c 2);
  check_int "total" 26 (Loads.Cursor.total_steps c);
  (* suffix dot-product: epoch 0 draws 5x1, epoch 2 draws 4x2 *)
  check_int "after 0" 8 (Loads.Cursor.draw_units_after c 0);
  check_int "after 1" 8 (Loads.Cursor.draw_units_after c 1);
  check_int "after 2" 0 (Loads.Cursor.draw_units_after c 2)

(* The event stream is consistent with the raw arrays on every test load:
   per epoch, draws match the precomputed schedule and elapsed steps match
   the epoch length. *)
let test_cursor_walk_matches_arrays () =
  List.iter
    (fun name ->
      let a = paper_enc (Loads.Testloads.load name) in
      let c = Loads.Cursor.make a in
      let y = ref 0 and draws = ref 0 and last_step = ref 0 in
      List.iter
        (fun (ev, step) ->
          match ev with
          | Loads.Cursor.Draw cur ->
              incr draws;
              check_int "draw size" a.Loads.Arrays.cur.(!y) cur
          | Loads.Cursor.Idle _ -> ()
          | Loads.Cursor.Epoch_end ->
              check_int
                (Printf.sprintf "%s epoch %d ends on the boundary"
                   (Loads.Testloads.to_string name) !y)
                a.Loads.Arrays.load_time.(!y) step;
              check_int "draw count" (Loads.Cursor.schedule c !y).draws !draws;
              draws := 0;
              incr y;
              last_step := step)
        (walk c);
      check_int "all epochs walked" (Loads.Arrays.epoch_count a) !y;
      check_int "full duration walked" (Loads.Cursor.total_steps c) !last_step)
    Loads.Testloads.all_names

(* [Cursor.compile] accepts step counters exactly up to
   [max_compiled_steps] and rejects one past it with a structured
   error, both for the total-steps guard and for the per-epoch
   draws * cur product. *)
let test_cursor_compile_overflow_boundary () =
  let limit = Loads.Cursor.max_compiled_steps in
  let idle_of_len len =
    Loads.Arrays.of_arrays ~time_step:0.01 ~charge_unit:0.01
      ~load_time:[| len |] ~cur_times:[| 1 |] ~cur:[| 0 |]
  in
  let job ~len ~cur =
    Loads.Arrays.of_arrays ~time_step:0.01 ~charge_unit:0.01
      ~load_time:[| len |] ~cur_times:[| 1 |] ~cur:[| cur |]
  in
  (* the cursor path and the direct path must agree, errors included *)
  let compile a =
    let via_cursor = Loads.Cursor.compile (Loads.Cursor.make a) in
    if via_cursor <> Loads.Cursor.compile_arrays a then
      Alcotest.fail "compile_arrays differs from compile (make a)";
    via_cursor
  in
  (* exactly at the limit: accepted, and the totals survive intact *)
  (match compile (idle_of_len limit) with
  | Ok c -> check_int "boundary total" limit c.Loads.Cursor.c_total
  | Error e -> Alcotest.failf "boundary rejected: %s" (Guard.Error.to_string e));
  (* one past it: a structured loads.cursor error naming the field *)
  (match compile (idle_of_len (limit + 1)) with
  | Ok _ -> Alcotest.fail "limit + 1 accepted"
  | Error e ->
      Alcotest.(check string) "subsystem" "loads.cursor" e.Guard.Error.subsystem;
      Alcotest.(check (option string))
        "field" (Some "load_time") e.Guard.Error.field);
  (* draws * cur at the unit-counter limit: accepted with cur = 1 ... *)
  (match compile (job ~len:limit ~cur:1) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "unit boundary rejected: %s" (Guard.Error.to_string e));
  (* ... but the same length overflows the product once cur > 1 *)
  match compile (job ~len:limit ~cur:5) with
  | Ok _ -> Alcotest.fail "overflowing draws * cur accepted"
  | Error e ->
      Alcotest.(check string) "subsystem" "loads.cursor" e.Guard.Error.subsystem;
      Alcotest.(check (option string)) "field" (Some "cur") e.Guard.Error.field

(* A compiled load holds, at entry [y], the fields of the cursor's
   schedule of epoch [y]: on the ten test loads and on random hand-built
   encodings whose idle epochs carry arbitrary cadences. *)
let test_compile_arrays_matches_schedules () =
  let g = Random.State.make [| 19 |] in
  let random_arrays () =
    let n = 1 + Random.State.int g 30 in
    let clock = ref 0 in
    let load_time =
      Array.init n (fun _ ->
          clock := !clock + 1 + Random.State.int g 500;
          !clock)
    in
    Loads.Arrays.of_arrays ~time_step:0.01 ~charge_unit:0.01 ~load_time
      ~cur_times:(Array.init n (fun _ -> 1 + Random.State.int g 90))
      ~cur:
        (Array.init n (fun _ ->
             if Random.State.int g 3 = 0 then 0 else 1 + Random.State.int g 9))
  in
  let check a =
    let t = Loads.Cursor.make a in
    match Loads.Cursor.compile_arrays a with
    | Error e -> Alcotest.failf "refused: %s" (Guard.Error.to_string e)
    | Ok c ->
        let n = Loads.Cursor.epoch_count t in
        check_int "epochs" n (Array.length c.Loads.Cursor.c_lens);
        check_int "total" (Loads.Cursor.total_steps t) c.c_total;
        for y = 0 to n - 1 do
          let s = Loads.Cursor.schedule t y in
          if
            c.c_starts.(y) <> Loads.Cursor.epoch_start t y
            || c.c_lens.(y) <> Loads.Cursor.epoch_len t y
            || c.c_ct.(y) <> s.ct || c.c_cur.(y) <> s.cur
            || c.c_draws.(y) <> s.draws || c.c_rest.(y) <> s.rest
          then Alcotest.failf "epoch %d of %d differs from the cursor" y n
        done
  in
  List.iter (fun name -> check (paper_enc (Loads.Testloads.load name)))
    Loads.Testloads.all_names;
  for _ = 1 to 500 do
    check (random_arrays ())
  done

(* ------------------------------------------------------------------ *)
(* Exact fractions: the jumping descent = the step-by-step descent     *)
(* ------------------------------------------------------------------ *)

(* The Stern-Brocot descent as it stood before runs were jumped: one
   mediant per step.  The reference [Loads.Arrays.to_fraction] must
   reproduce, cap edges included. *)
let reference_to_fraction ~max_den x =
  let eps = 1e-9 in
  if x <= 0.0 then None
  else begin
    let rec go lo_p lo_q hi_p hi_q depth =
      if depth > 100_000 then None
      else begin
        let p = lo_p + hi_p and q = lo_q + hi_q in
        if q > max_den then None
        else begin
          let v = float_of_int p /. float_of_int q in
          if Float.abs (v -. x) <= eps *. Float.max 1.0 x then Some (p, q)
          else if v < x then go p q hi_p hi_q (depth + 1)
          else go lo_p lo_q p q (depth + 1)
        end
      end
    in
    go 0 1 1 0 0
  end

let test_fraction_differential () =
  let seed = Guard.Chaos.seed_from_env ~default:20261019L () in
  Printf.printf "test_loads: CHAOS_SEED=%Ld (fractions)\n%!" seed;
  let st = Random.State.make [| Int64.to_int seed; 19 |] in
  let found = ref 0 and none = ref 0 in
  let check ~max_den x =
    let want = reference_to_fraction ~max_den x in
    let got = Loads.Arrays.to_fraction ~max_den x in
    if got <> want then begin
      let show = function
        | Some (p, q) -> Printf.sprintf "%d/%d" p q
        | None -> "None"
      in
      Alcotest.failf "[seed %Ld] to_fraction ~max_den:%d %h (%.17g): %s, \
         step-by-step %s"
        seed max_den x x (show got) (show want)
    end;
    if want = None then incr none else incr found
  in
  (* exact fractions p/q with q up to max_den, and near misses *)
  for _ = 1 to 3_000 do
    let max_den = 1 + Random.State.int st (if Random.State.bool st then 10_000 else 300) in
    let q = 1 + Random.State.int st max_den in
    let p = 1 + Random.State.int st (1 + Random.State.int st (20 * q)) in
    let x = float_of_int p /. float_of_int q in
    check ~max_den x;
    check ~max_den (x *. (1.0 +. (1e-8 *. Random.State.float st 2.0)));
    check ~max_den:(max 1 (q - 1)) x
  done;
  (* tiny and huge ratios, and arbitrary reals *)
  for _ = 1 to 200 do
    check ~max_den:10_000 (Float.pow 10.0 (-.Random.State.float st 12.0));
    check ~max_den:10_000 (Float.pow 10.0 (Random.State.float st 12.0));
    check ~max_den:10_000 (Random.State.float st 50.0)
  done;
  List.iter (fun x -> check ~max_den:10_000 x)
    [ 0.0; -1.0; 1e-300; 1e300; Float.min_float; 1e-4; 1.0; 0.5 ];
  (* The 100,000-step cap, around depths 99,989-100,010: straight up to
     the integer k (depth k - 1), up then one or two turns (k + 1/2 and
     k + 1/3), and straight down.  Below 1 the tolerance is 1e-9 while
     the mediants 1/m lie about 1e-10 apart, so the descent down to
     the midpoint of 1/k and 1/(k - 1), less 1e-9, first matches at
     1/k (depth k - 1). *)
  for k = 99_990 to 100_010 do
    let x = float_of_int k in
    let down = (0.5 *. ((1.0 /. x) +. (1.0 /. (x -. 1.0)))) -. 1e-9 in
    let within = k - 1 <= 100_000 in
    (* the cases sit on the cap: depth k - 1 is reached exactly *)
    if reference_to_fraction ~max_den:10_000 x <> (if within then Some (k, 1) else None)
       || reference_to_fraction ~max_den:200_000 down
          <> if within then Some (1, k) else None
    then Alcotest.failf "cap edge %d: not at depth %d" k (k - 1);
    check ~max_den:10_000 x;
    check ~max_den:10_000 (x +. 0.5);
    check ~max_den:10_000 (x +. (1.0 /. 3.0));
    check ~max_den:200_000 down
  done;
  if !found = 0 || !none = 0 then
    Alcotest.failf "fraction cases not all reached (found %d, none %d)" !found
      !none

(* Many tiny currents encode fast and exactly: 5,000 jobs of 1e-4 A are
   each 1/10,000, the deepest descent the encoding allows. *)
let test_tiny_currents_encode () =
  let a =
    Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01
      (Loads.Epoch.concat
         (List.init 5_000 (fun _ -> Loads.Epoch.job ~current:0.0001 ~duration:1.0)))
  in
  check_int "epochs" 5_000 (Loads.Arrays.epoch_count a);
  Array.iteri
    (fun y cur ->
      if cur <> 1 || a.cur_times.(y) <> 10_000 then
        Alcotest.failf "epoch %d encodes %d/%d" y cur a.cur_times.(y))
    a.cur

(* ------------------------------------------------------------------ *)
(* Test loads                                                          *)
(* ------------------------------------------------------------------ *)

let test_all_loads_build () =
  List.iter
    (fun name ->
      let l = Loads.Testloads.load name in
      Alcotest.(check bool)
        (Loads.Testloads.to_string name)
        true
        (Loads.Epoch.duration l >= 398.0 && Loads.Epoch.job_count l > 0);
      ignore (paper_enc l))
    Loads.Testloads.all_names

let test_load_names_roundtrip () =
  List.iter
    (fun name ->
      match Loads.Testloads.of_string (Loads.Testloads.to_string name) with
      | Some n when n = name -> ()
      | _ ->
          Alcotest.failf "name roundtrip failed for %s"
            (Loads.Testloads.to_string name))
    Loads.Testloads.all_names;
  Alcotest.(check bool) "underscore accepted" true
    (Loads.Testloads.of_string "ils_alt" = Some Loads.Testloads.ILs_alt);
  Alcotest.(check bool) "unknown rejected" true
    (Loads.Testloads.of_string "nonsense" = None)

let test_alt_starts_high () =
  (* calibration result: alternating loads start with the 500 mA job *)
  match Loads.Epoch.jobs (Loads.Testloads.load Loads.Testloads.CL_alt) with
  | (_, c0, _) :: (_, c1, _) :: _ ->
      check_float "first job high" 0.5 c0;
      check_float "second job low" 0.25 c1
  | _ -> Alcotest.fail "CL alt too short"

let test_reconstructed_r_sequences () =
  let first_currents name n =
    Loads.Epoch.jobs (Loads.Testloads.load name)
    |> List.filteri (fun i _ -> i < n)
    |> List.map (fun (_, c, _) -> c)
  in
  Alcotest.(check (list (float 1e-9)))
    "r1 = LHHLHLLLHLLH"
    [ 0.25; 0.5; 0.5; 0.25; 0.5; 0.25; 0.25; 0.25; 0.5; 0.25; 0.25; 0.5 ]
    (first_currents Loads.Testloads.ILs_r1 12);
  Alcotest.(check (list (float 1e-9)))
    "r2 = LHHLLHHH"
    [ 0.25; 0.5; 0.5; 0.25; 0.25; 0.5; 0.5; 0.5 ]
    (first_currents Loads.Testloads.ILs_r2 8)

let test_random_load_determinism () =
  let a = Loads.Random_load.intermitted ~seed:7L ~jobs:20 () in
  let b = Loads.Random_load.intermitted ~seed:7L ~jobs:20 () in
  Alcotest.(check bool) "same seed same load" true (Loads.Epoch.equal a b);
  let c = Loads.Random_load.intermitted ~seed:8L ~jobs:20 () in
  Alcotest.(check bool) "different seed differs" true (not (Loads.Epoch.equal a c))

let test_random_load_shape () =
  let l = Loads.Random_load.intermitted ~seed:1L ~jobs:10 () in
  check_int "10 jobs" 10 (Loads.Epoch.job_count l);
  check_float "20 minutes" 20.0 (Loads.Epoch.duration l);
  List.iter
    (fun (_, c, _) ->
      if c <> 0.25 && c <> 0.5 then Alcotest.failf "unexpected current %f" c)
    (Loads.Epoch.jobs l)

(* ------------------------------------------------------------------ *)
(* The load-spec language                                              *)
(* ------------------------------------------------------------------ *)

let test_spec_basic () =
  let l = Loads.Spec.parse "job 0.5 1; idle 1; job 0.25 1; idle 1" in
  check_int "4 epochs" 4 (Loads.Epoch.epoch_count l);
  check_float "duration" 4.0 (Loads.Epoch.duration l);
  match Loads.Epoch.jobs l with
  | [ (_, c1, _); (_, c2, _) ] ->
      check_float "first current" 0.5 c1;
      check_float "second current" 0.25 c2
  | _ -> Alcotest.fail "expected two jobs"

let test_spec_repeat () =
  let l = Loads.Spec.parse "repeat 3 (job 0.5 1; idle 1)" in
  check_int "3 jobs" 3 (Loads.Epoch.job_count l);
  check_float "6 minutes" 6.0 (Loads.Epoch.duration l)

let test_spec_nested_repeat () =
  let l = Loads.Spec.parse "repeat 2 (job 0.5 1; repeat 2 (idle 1; job 0.25 1))" in
  check_int "6 jobs" 6 (Loads.Epoch.job_count l)

let test_spec_named_load () =
  let l = Loads.Spec.parse "ils_alt" in
  Alcotest.(check bool) "matches built-in" true
    (Loads.Epoch.equal l (Loads.Testloads.load Loads.Testloads.ILs_alt))

let test_spec_roundtrip () =
  let l = Loads.Spec.parse "job 0.5 1; idle 2; job 0.25 0.5" in
  let l' = Loads.Spec.parse (Loads.Spec.to_string l) in
  Alcotest.(check bool) "roundtrip" true (Loads.Epoch.equal l l')

let test_spec_errors () =
  let fails s =
    Alcotest.(check bool) s true
      (try
         ignore (Loads.Spec.parse s);
         false
       with Loads.Spec.Parse_error _ -> true)
  in
  fails "";
  fails "job";
  fails "job abc 1";
  fails "job 0.5 1; bogus";
  fails "repeat 0 (job 0.5 1)";
  fails "repeat 2 job 0.5 1";
  fails "job 0.5 1 )";
  fails "job -0.5 1"

(* The refusals: nested repeats that would expand to 9 M and 900 M
   epochs, and a repeat count of [max_int], are refused before a single
   copy is built (the test would run out of memory otherwise) — with a
   structured error, so the CLI exits 2 and the daemon answers
   ["ok":false]. *)
let test_spec_size_limit () =
  let refused s =
    match Loads.Spec.parse_result s with
    | Ok l ->
        Alcotest.failf "%S accepted (%d epochs)" s (Loads.Epoch.epoch_count l)
    | Error e ->
        Alcotest.(check string) (s ^ ": subsystem") "loads.spec" e.subsystem;
        Alcotest.(check string) (s ^ ": what") "spec load too long" e.what;
        Alcotest.(check (option string)) (s ^ ": input") (Some s) e.input
  in
  refused "repeat 3000 (repeat 3000 (job 0.5 1))";
  refused "repeat 30000 (repeat 30000 (job 0.5 1))";
  refused "repeat 4611686018427387903 (job 1 1)";
  (* counted as repeat expands them, before the copies' idles merge *)
  refused "repeat 30000 (idle 1)";
  refused (String.concat "; " (List.init 20_001 (fun _ -> "job 0.5 1")));
  let at_limit = Loads.Spec.parse "repeat 10000 (job 0.5 1; idle 1)" in
  check_int "exactly the limit" Loads.Spec.max_epochs
    (Loads.Epoch.epoch_count at_limit)

(* The parser as it was before sequences were joined in one pass: every
   item appended to the already-parsed rest with [Epoch.append]
   (quadratic), and no size limit.  Kept as the reference the linear
   parser must reproduce bit for bit; [None] is any parse error. *)
let reference_parse input =
  let tokens = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (function
      | ' ' | '\t' | '\n' | '\r' -> flush ()
      | (';' | '(' | ')') as c ->
          flush ();
          tokens := String.make 1 c :: !tokens
      | c -> Buffer.add_char buf c)
    input;
  flush ();
  tokens := List.rev !tokens;
  let peek () = match !tokens with t :: _ -> Some t | [] -> None in
  let next () =
    match !tokens with
    | t :: rest ->
        tokens := rest;
        Some t
    | [] -> None
  in
  let positive conv = function
    | Some t -> ( match conv t with Some v when v > 0 -> v | _ -> raise Exit)
    | None -> raise Exit
  in
  let pos_float tok =
    match Option.bind tok float_of_string_opt with
    | Some f when f > 0.0 -> f
    | _ -> raise Exit
  in
  let rec seq () =
    let first = item () in
    match peek () with
    | Some ";" ->
        ignore (next ());
        Loads.Epoch.append first (seq ())
    | _ -> first
  and item () =
    match next () with
    | Some "job" ->
        let current = pos_float (next ()) in
        let duration = pos_float (next ()) in
        Loads.Epoch.job ~current ~duration
    | Some "idle" -> Loads.Epoch.idle (pos_float (next ()))
    | Some "repeat" ->
        let n = positive int_of_string_opt (next ()) in
        if next () <> Some "(" then raise Exit;
        let body = seq () in
        if next () <> Some ")" then raise Exit;
        Loads.Epoch.repeat n body
    | Some name -> (
        match Loads.Testloads.of_string name with
        | Some l -> Loads.Testloads.load l
        | None -> raise Exit)
    | None -> raise Exit
  in
  match
    let l = seq () in
    if peek () <> None then raise Exit;
    l
  with
  | l -> Some l
  | exception Exit -> None

(* Random specs, seeded from CHAOS_SEED (printed; export it to replay a
   failure).  Idle lengths whose float sums depend on association make
   any change in how idles merge visible.  [size] bounds the epochs a
   spec can count before merging: within the limit, the two parsers must
   agree exactly, refusals included; beyond it, the new parser may also
   refuse with "spec load too long".  Repeat counts are capped so no
   repeat expands past 1.5x the limit: the reference builds whatever it
   is given.  A fifth of the specs are mangled into (mostly) malformed
   input, by edits that cannot deepen the nesting. *)
let test_spec_differential () =
  let seed = Guard.Chaos.seed_from_env ~default:20261018L () in
  Printf.printf "test_loads: CHAOS_SEED=%Ld\n%!" seed;
  let st = Random.State.make [| Int64.to_int seed |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let rec gen_seq depth =
    let items =
      List.init (1 + Random.State.int st 4) (fun _ -> gen_item depth)
    in
    ( String.concat "; " (List.map fst items),
      List.fold_left (fun n (_, k) -> n + k) 0 items )
  and gen_item depth =
    match Random.State.int st (if depth > 0 then 6 else 5) with
    | 0 ->
        ( Printf.sprintf "job %s %s" (pick [| "0.25"; "0.5"; "0.3" |])
            (pick [| "1"; "0.5"; "2" |]),
          1 )
    | 1 | 2 | 3 ->
        ("idle " ^ pick [| "0.1"; "0.2"; "0.7"; "1.3"; "3" |], 1)
    | 4 ->
        let name, load =
          pick
            Loads.Testloads.
              [| ("cl_500", CL_500); ("cl_alt", CL_alt); ("ils_alt", ILs_alt) |]
        in
        (name, Loads.Epoch.epoch_count (Loads.Testloads.load load))
    | _ ->
        let body, k = gen_seq (depth - 1) in
        let n = max 1 (min (pick [| 1; 2; 3; 7; 40; 400 |]) (30_000 / k)) in
        (Printf.sprintf "repeat %d (%s)" n body, n * k)
  in
  let mangle s =
    match Random.State.int st 3 with
    | 0 -> String.sub s 0 (Random.State.int st (String.length s))
    | 1 ->
        let i = Random.State.int st (String.length s) in
        String.mapi (fun j c -> if j = i then pick [| ';'; 'x'; '-' |] else c) s
    | _ -> s ^ pick [| ")"; "; idle"; " 1" |]
  in
  let agreed = ref 0 in
  for _ = 1 to 2_000 do
    let spec, size = gen_seq 3 in
    let mangled = Random.State.int st 5 = 0 in
    let spec = if mangled then mangle spec else spec in
    match (reference_parse spec, Loads.Spec.parse_result spec) with
    | Some a, Ok b ->
        if Loads.Epoch.epochs a <> Loads.Epoch.epochs b then
          Alcotest.failf "%S: the parsers disagree" spec;
        incr agreed
    | None, Error _ -> incr agreed
    | Some _, Error e
      when (mangled || size > Loads.Spec.max_epochs)
           && e.Guard.Error.what = "spec load too long" -> ()
    | Some _, Error e ->
        Alcotest.failf "%S: refused (%s) but the reference parses it" spec
          (Guard.Error.to_string e)
    | None, Ok _ ->
        Alcotest.failf "%S: accepted but the reference refuses it" spec
  done;
  if !agreed < 1_800 then
    Alcotest.failf "only %d of 2000 specs compared" !agreed

let () =
  Alcotest.run "loads"
    [
      ( "epoch algebra",
        [
          Alcotest.test_case "idle merging" `Quick test_idle_merging;
          Alcotest.test_case "jobs stay distinct" `Quick test_jobs_do_not_merge;
          Alcotest.test_case "jobs listing" `Quick test_jobs_listing;
          Alcotest.test_case "epoch_at" `Quick test_epoch_at;
          Alcotest.test_case "to_profile" `Quick test_to_profile;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "arrays (section 4.1)",
        [
          Alcotest.test_case "CL alt encoding" `Quick test_arrays_cl_alt;
          Alcotest.test_case "idle epochs" `Quick test_arrays_idle_epochs;
          Alcotest.test_case "eq (7) roundtrip" `Quick test_arrays_current_roundtrip;
          Alcotest.test_case "not representable current" `Quick
            test_arrays_not_representable;
          Alcotest.test_case "off-grid duration" `Quick test_arrays_off_grid_duration;
          Alcotest.test_case "validation" `Quick test_arrays_validation;
          Alcotest.test_case "discretization compatibility" `Quick
            test_arrays_compatibility_check;
          QCheck_alcotest.to_alcotest prop_arrays_duration_consistent;
        ] );
      ( "cursor (execution kernel)",
        [
          Alcotest.test_case "zero-current epoch" `Quick
            test_cursor_zero_current_epoch;
          Alcotest.test_case "trailing rest" `Quick test_cursor_trailing_rest;
          Alcotest.test_case "final-step draw race" `Quick
            test_cursor_final_step_draw;
          Alcotest.test_case "geometry + suffix units" `Quick
            test_cursor_geometry_and_suffix;
          Alcotest.test_case "event walk matches arrays" `Quick
            test_cursor_walk_matches_arrays;
          Alcotest.test_case "compile overflow boundary" `Quick
            test_cursor_compile_overflow_boundary;
          Alcotest.test_case "compile_arrays = schedules" `Quick
            test_compile_arrays_matches_schedules;
        ] );
      ( "fractions",
        [
          Alcotest.test_case "jumping descent = step-by-step" `Quick
            test_fraction_differential;
          Alcotest.test_case "tiny currents encode" `Quick
            test_tiny_currents_encode;
        ] );
      ( "spec language",
        [
          Alcotest.test_case "basic" `Quick test_spec_basic;
          Alcotest.test_case "repeat" `Quick test_spec_repeat;
          Alcotest.test_case "nested repeat" `Quick test_spec_nested_repeat;
          Alcotest.test_case "named load" `Quick test_spec_named_load;
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "size limit" `Quick test_spec_size_limit;
          Alcotest.test_case "differential vs append parser" `Quick
            test_spec_differential;
        ] );
      ( "test loads",
        [
          Alcotest.test_case "all ten build" `Quick test_all_loads_build;
          Alcotest.test_case "names roundtrip" `Quick test_load_names_roundtrip;
          Alcotest.test_case "alternation starts high" `Quick test_alt_starts_high;
          Alcotest.test_case "reconstructed r1/r2" `Quick
            test_reconstructed_r_sequences;
          Alcotest.test_case "random determinism" `Quick test_random_load_determinism;
          Alcotest.test_case "random shape" `Quick test_random_load_shape;
        ] );
    ]
