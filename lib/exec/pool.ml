(* A queue of thunks drained by [domains - 1] worker domains plus the
   submitting domain itself.  All coordination goes through one mutex:
   the queue, the shutdown flag, and each batch's completion counter.
   Determinism needs no care here — tasks write disjoint result slots,
   and the mutex hand-off at batch completion publishes them to the
   submitter (happens-before). *)

(* Observability: per-task queue latency (submit-to-start) and busy
   time.  The busy counter lands in the sink of the domain that ran the
   task, so the merged snapshot's per-domain breakdown is the pool's
   utilization picture.  Instrumentation is decided once per batch (at
   submit time) so the disabled path pays a single flag read. *)
let c_tasks = Obs.counter "pool.tasks"
let c_busy_ns = Obs.counter "pool.busy_ns"
let c_queue_wait_ns = Obs.counter "pool.queue_wait_ns"
let c_retries = Obs.counter "pool.retries"
let c_skipped = Obs.counter "pool.cancelled_tasks"
let h_chunk = Obs.histogram "pool.chunk_size"
let s_batch = Obs.span "pool.batch"

let instrument f =
  let t_submit = Obs.now_ns () in
  fun () ->
    let t_start = Obs.now_ns () in
    Obs.incr c_tasks;
    Obs.add c_queue_wait_ns (max 0 (t_start - t_submit));
    Fun.protect
      ~finally:(fun () -> Obs.add c_busy_ns (max 0 (Obs.now_ns () - t_start)))
      f

type batch = {
  mutable remaining : int;
  mutable skipped : int;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable shutting_down : bool;
  shutdown_latch : bool Atomic.t;
      (* claimed by the one shutdown call that drains and joins; makes
         shutdown idempotent and safe to initiate concurrently (e.g. a
         drain started from a signal-initiated path racing the owner's
         Fun.protect finalizer) *)
  mutable workers : unit Domain.t array;
  chaos : Guard.Chaos.t option;
  retries : int;
}

(* Fault injection (tests only — see Guard.Chaos): every dispatch may be
   delayed, and may crash before the task body runs.  Injected crashes
   are retried — tasks are pure per the module contract, so re-running
   one is always safe; any real exception still propagates on first
   throw.  Retries exhausted, the Injected_crash itself propagates, so
   an over-aggressive chaos configuration is loud, not silent. *)
let with_chaos t f =
  match t.chaos with
  | None -> f
  | Some chaos ->
      fun () ->
        let rec attempt k =
          Guard.Chaos.maybe_delay chaos;
          match
            Guard.Chaos.maybe_crash chaos;
            f ()
          with
          | v -> v
          | exception Guard.Chaos.Injected_crash _ when k < t.retries ->
              Obs.incr c_retries;
              attempt (k + 1)
        in
        attempt 0

let worker_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.shutting_down do
      Condition.wait t.work_available t.mutex
    done;
    if Queue.is_empty t.queue then begin
      (* shutting down and drained *)
      running := false;
      Mutex.unlock t.mutex
    end
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      task ()
    end
  done

let create ?domains ?chaos ?(retries = 3) () =
  let domains =
    match domains with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some d when d >= 1 -> d
    | Some d ->
        invalid_arg (Printf.sprintf "Exec.Pool.create: domains = %d < 1" d)
  in
  if retries < 0 then
    invalid_arg (Printf.sprintf "Exec.Pool.create: retries = %d < 0" retries);
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      shutting_down = false;
      shutdown_latch = Atomic.make false;
      workers = [||];
      chaos;
      retries;
    }
  in
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = Array.length t.workers + 1

(* Idempotent, and safe to call from two places at once: the CAS picks
   the single caller that flags the workers and joins them; every later
   or concurrent call returns immediately without touching the mutex or
   the (possibly already joined) worker array.  The non-winning caller
   does NOT wait for the join — shutdown-then-submit remains the owning
   domain's contract either way ([check_open]). *)
let shutdown t =
  if Atomic.compare_and_set t.shutdown_latch false true then begin
    Mutex.lock t.mutex;
    t.shutting_down <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* Fire-and-forget dispatch, safe from any domain: the queue push and
   the shutdown check ride the same mutex the workers use, so — unlike
   [run_tasks], whose unlocked [check_open] read is the owning domain's
   privilege — a submit racing a shutdown either lands before the flag
   flips (and the task runs: workers drain the queue before exiting)
   or observes it and raises.  Nobody waits on a submitted task, so a
   raising task would kill its worker domain with no one to rethrow
   to; the wrapper swallows and counts instead. *)
let c_submit_errors = Obs.counter "pool.submit_errors"

let submit t f =
  let f = with_chaos t f in
  let f = if Obs.enabled () then instrument f else f in
  let task () = try f () with _ -> Obs.incr c_submit_errors in
  Mutex.lock t.mutex;
  if t.shutting_down then begin
    Mutex.unlock t.mutex;
    invalid_arg "Exec.Pool: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex

let with_pool ?domains ?chaos ?retries f =
  let t = create ?domains ?chaos ?retries () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run every thunk in [tasks]; the caller helps drain the queue, then
   blocks until in-flight tasks land.  Wrapped tasks never raise: the
   first failure is recorded in the batch and re-raised here once the
   whole batch has completed. *)
(* Only the owning domain submits and shuts down, so reading
   [shutting_down] without the mutex here is race-free. *)
let check_open t =
  if t.shutting_down then invalid_arg "Exec.Pool: pool is shut down"

let run_tasks ?cancel t (tasks : (unit -> unit) array) =
  check_open t;
  let tasks = Array.map (with_chaos t) tasks in
  let tasks = if Obs.enabled () then Array.map instrument tasks else tasks in
  (* A fired token makes every not-yet-started task of the batch a
     no-op — the prompt-stop path for a tripped Guard.Budget — and the
     batch reports the cancellation by raising once it has drained. *)
  let cancelled () =
    match cancel with Some c -> Guard.Cancel.is_set c | None -> false
  in
  if Array.length tasks = 0 then ()
  else if Array.length t.workers = 0 then
    Obs.time s_batch (fun () ->
        let skipped = ref 0 in
        Array.iter (fun f -> if cancelled () then incr skipped else f ()) tasks;
        if !skipped > 0 then begin
          Obs.add c_skipped !skipped;
          raise Guard.Cancel.Cancelled
        end)
  else begin
    Obs.time s_batch @@ fun () ->
    let b = { remaining = Array.length tasks; skipped = 0; error = None } in
    let wrap f () =
      (if cancelled () then begin
         Mutex.lock t.mutex;
         b.skipped <- b.skipped + 1;
         Mutex.unlock t.mutex
       end
       else
         try f ()
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock t.mutex;
           if b.error = None then b.error <- Some (e, bt);
           Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      b.remaining <- b.remaining - 1;
      if b.remaining = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    if t.shutting_down then begin
      Mutex.unlock t.mutex;
      invalid_arg "Exec.Pool: pool is shut down"
    end;
    Array.iter (fun f -> Queue.push (wrap f) t.queue) tasks;
    Condition.broadcast t.work_available;
    let continue = ref true in
    while !continue do
      if Queue.is_empty t.queue then continue := false
      else begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex
      end
    done;
    while b.remaining > 0 do
      Condition.wait t.batch_done t.mutex
    done;
    Mutex.unlock t.mutex;
    match b.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        if b.skipped > 0 then begin
          Obs.add c_skipped b.skipped;
          raise Guard.Cancel.Cancelled
        end
  end

let parallel_init ?cancel ?chunk t n f =
  check_open t;
  if n < 0 then invalid_arg (Printf.sprintf "Exec.Pool.parallel_init: n = %d" n);
  (match chunk with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Exec.Pool.parallel_init: chunk = %d" c)
  | _ -> ());
  if n = 0 then [||]
  else if Array.length t.workers = 0 && t.chaos = None && cancel = None then
    Array.init n f
  else begin
    let chunk =
      match chunk with
      | Some c -> c
      | None -> max 1 (n / (8 * size t))
    in
    Obs.observe h_chunk chunk;
    let n_chunks = (n + chunk - 1) / chunk in
    let slots = Array.make n_chunks [||] in
    let tasks =
      Array.init n_chunks (fun ci () ->
          let lo = ci * chunk in
          let len = min chunk (n - lo) in
          slots.(ci) <- Array.init len (fun i -> f (lo + i)))
    in
    run_tasks ?cancel t tasks;
    Array.concat (Array.to_list slots)
  end

let parallel_map ?cancel ?chunk t f a =
  parallel_init ?cancel ?chunk t (Array.length a) (fun i -> f a.(i))
