(* The domain pool's contract: deterministic slot ordering for every
   domain count and chunk size, faithful exception re-raise, pool reuse
   across batches, and clean shutdown semantics. *)

(* a little arithmetic so tasks take unequal, nontrivial time *)
let work i =
  let acc = ref i in
  for k = 1 to 1000 + (977 * i mod 3001) do
    acc := (!acc * 48271) mod 0x7fffffff;
    acc := !acc + k
  done;
  !acc

let domain_counts = [ 1; 2; 4 ]

let test_parallel_init_matches_serial () =
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun n ->
              let expected = Array.init n work in
              List.iter
                (fun chunk ->
                  let got = Exec.Pool.parallel_init ?chunk pool n work in
                  Alcotest.(check (array int))
                    (Printf.sprintf "init n=%d domains=%d" n domains)
                    expected got)
                [ None; Some 1; Some 3; Some 64 ])
            [ 0; 1; 2; 7; 100 ]))
    domain_counts

let test_parallel_map_matches_serial () =
  let input = Array.init 53 (fun i -> 3 * i) in
  let f x = work (x mod 17) + x in
  let expected = Array.map f input in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "map domains=%d" domains)
            expected
            (Exec.Pool.parallel_map pool f input)))
    domain_counts

let test_pool_reuse_across_batches () =
  Exec.Pool.with_pool ~domains:3 (fun pool ->
      for round = 1 to 5 do
        let got = Exec.Pool.parallel_init pool 20 (fun i -> (round * 100) + i) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 20 (fun i -> (round * 100) + i))
          got
      done)

exception Boom of int

let test_exception_reraised () =
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          (match
             Exec.Pool.parallel_init ~chunk:1 pool 16 (fun i ->
                 if i = 11 then raise (Boom i) else i)
           with
          | _ -> Alcotest.fail "exception swallowed"
          | exception Boom 11 -> ());
          (* the pool survives a failed batch *)
          Alcotest.(check (array int))
            "usable after failure"
            (Array.init 8 (fun i -> i))
            (Exec.Pool.parallel_init pool 8 Fun.id)))
    domain_counts

let test_validation () =
  Alcotest.check_raises "domains = 0"
    (Invalid_argument "Exec.Pool.create: domains = 0 < 1") (fun () ->
      ignore (Exec.Pool.create ~domains:0 ()));
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check int) "size" 2 (Exec.Pool.size pool);
      Alcotest.check_raises "negative n"
        (Invalid_argument "Exec.Pool.parallel_init: n = -1") (fun () ->
          ignore (Exec.Pool.parallel_init pool (-1) Fun.id));
      Alcotest.check_raises "chunk = 0"
        (Invalid_argument "Exec.Pool.parallel_init: chunk = 0") (fun () ->
          ignore (Exec.Pool.parallel_init ~chunk:0 pool 4 Fun.id)))

let test_shutdown () =
  let pool = Exec.Pool.create ~domains:2 () in
  ignore (Exec.Pool.parallel_init pool 4 Fun.id);
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Exec.Pool: pool is shut down") (fun () ->
      ignore (Exec.Pool.parallel_init pool 4 Fun.id))

(* Two drains racing — e.g. a signal-initiated stop path racing the
   owner's [Fun.protect] finalizer.  The latch must elect one joiner;
   both calls return, a third is a no-op, and the pool stays refusing
   work afterwards. *)
let test_shutdown_concurrent () =
  for _ = 1 to 20 do
    let pool = Exec.Pool.create ~domains:3 () in
    ignore (Exec.Pool.parallel_init pool 8 Fun.id);
    let gate = Atomic.make 0 in
    let racer () =
      Atomic.incr gate;
      while Atomic.get gate < 2 do
        Domain.cpu_relax ()
      done;
      Exec.Pool.shutdown pool
    in
    let d = Domain.spawn racer in
    racer ();
    Domain.join d;
    Exec.Pool.shutdown pool (* still idempotent after the race *);
    Alcotest.check_raises "submit after concurrent shutdown"
      (Invalid_argument "Exec.Pool: pool is shut down") (fun () ->
        ignore (Exec.Pool.parallel_init pool 4 Fun.id))
  done

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_init = Array.init" `Quick
            test_parallel_init_matches_serial;
          Alcotest.test_case "parallel_map = Array.map" `Quick
            test_parallel_map_matches_serial;
          Alcotest.test_case "reuse across batches" `Quick
            test_pool_reuse_across_batches;
          Alcotest.test_case "exceptions re-raised" `Quick
            test_exception_reraised;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
          Alcotest.test_case "shutdown race" `Quick test_shutdown_concurrent;
        ] );
    ]
