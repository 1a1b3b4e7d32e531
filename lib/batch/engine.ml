(* The struct-of-arrays discharge loop.

   One [run] advances every lane of a batch from full charge to its
   lifetime (or to the end of its load), epoch by epoch, with all
   dynamic state in the flat planes of [State.t] and every battery
   transition going through [Dkibam.Kernel] — the same recurrences the
   boxed scalar path ([Sched.Bank] / [Sched.Simulator]) executes, which
   is what makes the two paths bit-identical by construction rather
   than by testing alone.

   The inner loops allocate nothing: lane state lives in the batch's
   single backing buffer, every transition goes through one scratch
   [Dkibam.Kernel.cell] allocated per run, the loops are written over
   local refs rather than per-call closures, the compiled load
   schedules are shared read-only arrays, and policy decisions are
   computed straight off the planes (the scalar path's per-decision
   bank snapshot and alive-list allocations are exactly what this
   engine exists to avoid). *)

let c_steps = Obs.counter "batch.steps"
let c_lanes = Obs.counter "batch.lanes"
let c_batches = Obs.counter "batch.batches"

type policy = Sequential | Round_robin | Best_of | Fixed of int array

type lane = { load : int; policy : policy }

let code_of_policy = function
  | Sequential -> 0
  | Round_robin -> 1
  | Best_of -> 2
  | Fixed _ -> 3

(* Direct references to the externals keep the accesses inlined as
   plain memory operations: aliasing them through a [let] would turn
   every element access into an indirect call through a closure. *)
module A = Bigarray.Array1

let run ?(switch_delay = 1) ~n_batteries (disc : Dkibam.Discretization.t)
    ~(loads : Loads.Cursor.compiled array) ~(lanes : lane array) =
  if switch_delay < 0 then invalid_arg "Batch.Engine.run: negative switch delay";
  let n_lanes = Array.length lanes in
  Array.iter
    (fun l ->
      if l.load < 0 || l.load >= Array.length loads then
        invalid_arg "Batch.Engine.run: lane load index out of range")
    lanes;
  let st = State.create ~lanes:n_lanes ~n_batteries disc in
  Array.iteri
    (fun i l ->
      st.State.load_of.(i) <- l.load;
      st.State.policy_code.(i) <- code_of_policy l.policy;
      match l.policy with
      | Fixed sched -> st.State.fixed.(i) <- Array.copy sched
      | Sequential | Round_robin | Best_of -> ())
    lanes;
  let nb = n_batteries in
  (* -------------------------------------------------------------- *)
  (* Per-lane primitives — all state access through the flat planes *)
  (* -------------------------------------------------------------- *)
  (* The one scratch cell every kernel transition of this run goes
     through: a battery is loaded, transformed and stored back. *)
  let c = { Dkibam.Kernel.n = 0; m = 0; clock = 0 } in
  let recover j k =
    c.Dkibam.Kernel.m <- A.unsafe_get st.State.m_delta j;
    c.Dkibam.Kernel.clock <- A.unsafe_get st.State.recov_clock j;
    Dkibam.Kernel.tick disc c k;
    A.unsafe_set st.State.m_delta j c.Dkibam.Kernel.m;
    A.unsafe_set st.State.recov_clock j c.Dkibam.Kernel.clock
  in
  let tick_lane l k =
    (* Sched.Bank.tick_all: every battery recovers, dead ones included
       (paper section 4.3). *)
    if k > 0 then begin
      let b0 = l * nb in
      for j = b0 to b0 + nb - 1 do
        recover j k
      done;
      st.State.steps <- st.State.steps + (k * nb)
    end
  in
  let first_alive l =
    let b0 = l * nb in
    let j = ref 0 in
    while !j < nb && A.unsafe_get st.State.dead (b0 + !j) <> 0 do
      incr j
    done;
    if !j >= nb then 0 else !j
  in
  let best_of l =
    (* Sched.Policy.best_of: highest available charge among alive
       batteries, earliest id on ties (the fold replaces only on a
       strict improvement). *)
    let b0 = l * nb in
    let best = ref (-1) and best_avail = ref 0 in
    for j = 0 to nb - 1 do
      if A.unsafe_get st.State.dead (b0 + j) = 0 then begin
        let avail =
          Dkibam.Kernel.available_milli disc
            ~n:(A.unsafe_get st.State.n_gamma (b0 + j))
            ~m:(A.unsafe_get st.State.m_delta (b0 + j))
        in
        if !best < 0 || avail > !best_avail then begin
          best := j;
          best_avail := avail
        end
      end
    done;
    !best
  in
  let round_robin l =
    (* Sched.Policy round robin: [pol_state] is the cyclic cursor — the
       id after the previously chosen one; skip dead batteries. *)
    let b0 = l * nb in
    let k = ref (A.unsafe_get st.State.pol_state l) and count = ref 0 in
    while !count <= nb && A.unsafe_get st.State.dead (b0 + (!k mod nb)) <> 0 do
      incr k;
      incr count
    done;
    let chosen = if !count > nb then first_alive l else !k mod nb in
    A.unsafe_set st.State.pol_state l (chosen + 1);
    chosen
  in
  let choose l =
    match Array.unsafe_get st.State.policy_code l with
    | 0 -> first_alive l
    | 1 -> round_robin l
    | 2 -> best_of l
    | _ ->
        (* Fixed replay: entry [k] of the schedule if it names an alive
           battery, best-of otherwise; the index advances either way. *)
        let k = A.unsafe_get st.State.pol_state l in
        A.unsafe_set st.State.pol_state l (k + 1);
        let sched = st.State.fixed.(l) in
        if k < Array.length sched then begin
          let b = sched.(k) in
          if b >= 0 && b < nb && A.unsafe_get st.State.dead ((l * nb) + b) = 0 then b
          else best_of l
        end
        else best_of l
  in
  let serve_span l b ~ct ~cur ~draws ~rest =
    (* Sched.Bank.serve: battery [b] serves the whole span in one kernel
       call, then every other battery recovers the elapsed steps in one
       jump.  Returns the kernel's fatal-draw index (0: completed); a
       fatal draw marks [b] dead. *)
    let idx = (l * nb) + b in
    c.Dkibam.Kernel.n <- A.unsafe_get st.State.n_gamma idx;
    c.Dkibam.Kernel.m <- A.unsafe_get st.State.m_delta idx;
    c.Dkibam.Kernel.clock <- A.unsafe_get st.State.recov_clock idx;
    let fatal = Dkibam.Kernel.serve disc c ~ct ~cur ~draws ~rest in
    A.unsafe_set st.State.n_gamma idx c.Dkibam.Kernel.n;
    A.unsafe_set st.State.m_delta idx c.Dkibam.Kernel.m;
    A.unsafe_set st.State.recov_clock idx c.Dkibam.Kernel.clock;
    let k = Dkibam.Kernel.elapsed ~ct ~draws ~rest fatal in
    if k > 0 then begin
      let b0 = l * nb in
      for j = b0 to b0 + nb - 1 do
        if j <> idx then recover j k
      done;
      st.State.steps <- st.State.steps + (k * nb)
    end;
    if fatal > 0 then begin
      A.unsafe_set st.State.dead idx 1;
      A.unsafe_set st.State.alive l (A.unsafe_get st.State.alive l - 1)
    end;
    fatal
  in
  let finish_lane l ~lifetime =
    let b0 = l * nb in
    let left = ref 0 in
    for j = b0 to b0 + nb - 1 do
      left := !left + A.unsafe_get st.State.n_gamma j
    done;
    A.unsafe_set st.State.stranded l !left;
    A.unsafe_set st.State.lifetime l lifetime;
    A.unsafe_set st.State.finished l 1
  in
  (* -------------------------------------------------------------- *)
  (* One epoch of one lane — the Sched.Simulator loop, flattened     *)
  (* -------------------------------------------------------------- *)
  let serve_job l (cl : Loads.Cursor.compiled) y ~start ~len =
    let ct = Array.unsafe_get cl.c_ct y and cur = Array.unsafe_get cl.c_cur y in
    (* battery [b] serves from local offset [local]; the draw cadence
       restarts there (the go_on semantics) *)
    let b = ref (choose l) and local = ref 0 and serving = ref true in
    while !serving do
      let draws = (len - !local) / ct in
      let rest = len - !local - (draws * ct) in
      let fatal = serve_span l !b ~ct ~cur ~draws ~rest in
      if fatal = 0 then serving := false
      else begin
        let local' = !local + (fatal * ct) in
        if A.unsafe_get st.State.alive l = 0 then begin
          finish_lane l ~lifetime:(start + local');
          serving := false
        end
        else begin
          (* the emptied -> new_job -> go_on hand-over chain consumes
             [switch_delay] steps before the replacement starts *)
          let resume = local' + switch_delay in
          if resume < len then begin
            b := choose l;
            tick_lane l switch_delay;
            local := resume
          end
          else begin
            if len > local' then tick_lane l (len - local');
            serving := false
          end
        end
      end
    done
  in
  let advance_epoch l =
    let cl = loads.(Array.unsafe_get st.State.load_of l) in
    let y = A.unsafe_get st.State.epoch l in
    let len = Array.unsafe_get cl.c_lens y in
    let start = A.unsafe_get st.State.clock l in
    if Array.unsafe_get cl.c_cur y = 0 then tick_lane l len
    else serve_job l cl y ~start ~len;
    if A.unsafe_get st.State.finished l = 0 then begin
      A.unsafe_set st.State.clock l (start + len);
      A.unsafe_set st.State.epoch l (y + 1);
      if y + 1 >= Array.length cl.c_lens then
        (* batteries outlived the load: lifetime stays -1 *)
        finish_lane l ~lifetime:(-1)
    end
  in
  (* -------------------------------------------------------------- *)
  (* The batch pass loop: every pass advances each unfinished lane   *)
  (* by one epoch, so the whole batch marches through the loads in   *)
  (* lock-step and a lane's result never depends on its neighbours.  *)
  (* -------------------------------------------------------------- *)
  let remaining = ref 0 in
  for l = 0 to n_lanes - 1 do
    if Array.length loads.(st.State.load_of.(l)).c_lens = 0 then
      finish_lane l ~lifetime:(-1)
    else incr remaining
  done;
  while !remaining > 0 do
    for l = 0 to n_lanes - 1 do
      if A.unsafe_get st.State.finished l = 0 then begin
        advance_epoch l;
        if A.unsafe_get st.State.finished l = 1 then decr remaining
      end
    done
  done;
  Obs.incr c_batches;
  Obs.add c_lanes n_lanes;
  Obs.add c_steps st.State.steps;
  st
