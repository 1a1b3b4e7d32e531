(* The all-integer dKiBaM transition arithmetic, shared verbatim by the
   boxed scalar path (Battery, Sched.Bank) and the struct-of-arrays
   batch engine (Batch.Engine).  Keeping the recurrences here — and
   only here — is what lets the batch engine promise bit-identical
   results: both paths call the same code, so they cannot drift.

   Every function works in place on a [cell] and is written with loops
   over local refs rather than inner closures: ocamlopt keeps such refs
   in registers, so serving a span allocates nothing. *)

type cell = { mutable n : int; mutable m : int; mutable clock : int }

let tick (d : Discretization.t) c steps =
  if steps < 0 then invalid_arg "Dkibam.Kernel.tick: negative step count";
  (* Jump from recovery event to recovery event instead of stepping. *)
  let recov = d.recov_time in
  let k = ref steps and m = ref c.m and clock = ref c.clock in
  while !k > 0 do
    if !m < 2 then begin
      clock := !clock + !k;
      k := 0
    end
    else begin
      (* an already-overdue recovery (possible for hand-built states)
         fires on the next step, like a single tick *)
      let due = recov.(!m) - !clock in
      let due = if due < 1 then 1 else due in
      if due > !k then begin
        clock := !clock + !k;
        k := 0
      end
      else begin
        k := !k - due;
        m := !m - 1;
        clock := 0
      end
    end
  done;
  c.m <- !m;
  c.clock <- !clock

let draw (d : Discretization.t) c ~cur =
  (* The use_charge edge: the recovery clock resets exactly when
     recovery was not already running (m <= 1 before the draw), and an
     already-due recovery fires immediately afterwards — the recov_time
     table shrinks as m grows, so the invariant c_recov <= recov_time[m]
     can be violated by the jump and must be re-established at the same
     instant.  A single firing resets the clock to 0 < recov_time[m'],
     so one pass suffices. *)
  let clock = if c.m <= 1 then 0 else c.clock in
  let m = c.m + cur in
  let fires = m >= 2 && clock >= d.recov_time.(m) in
  c.n <- c.n - cur;
  if fires then begin
    c.m <- m - 1;
    c.clock <- 0
  end
  else begin
    c.m <- m;
    c.clock <- clock
  end

let serve (d : Discretization.t) c ~ct ~cur ~draws ~rest =
  (* [draws] times: [ct] steps of recovery, then the draw — fatal when
     the battery lacks the units (state left as ticked) or is empty by
     eq. (8) right after it; a completed span then recovers [rest]. *)
  let fatal = ref 0 and i = ref 1 in
  while !fatal = 0 && !i <= draws do
    tick d c ct;
    if c.n < cur then fatal := !i
    else begin
      draw d c ~cur;
      if Discretization.is_empty d ~n:c.n ~m:c.m then fatal := !i
    end;
    incr i
  done;
  if !fatal = 0 then tick d c rest;
  !fatal

let elapsed ~ct ~draws ~rest fatal =
  if fatal = 0 then (draws * ct) + rest else fatal * ct

let is_empty = Discretization.is_empty
let available_milli = Discretization.available_milli_units
