(* The all-integer dKiBaM transition arithmetic, shared verbatim by the
   boxed scalar path (Battery, Sched.Bank) and the struct-of-arrays
   batch engine (Batch.Engine).  Keeping the recurrences here — and
   only here — is what lets the batch engine promise bit-identical
   results: both paths call the same code, so they cannot drift.

   [serve] is the one loop: recovery and the use_charge edge are each
   written once, inline, over local refs that ocamlopt keeps in
   registers, so serving a span makes no call and allocates nothing.
   [tick] and [draw] are its one-segment cases. *)

type cell = { mutable n : int; mutable m : int; mutable clock : int }

let serve (d : Discretization.t) c ~ct ~cur ~draws ~rest =
  if ct < 0 || draws < 0 || rest < 0 then
    invalid_arg "Dkibam.Kernel: negative step or draw count";
  let recov = d.recov_time and c_n = d.c_milli and c_m = 1000 - d.c_milli in
  let n = ref c.n and m = ref c.m and clock = ref c.clock in
  (* Segments 1 .. draws are [ct] steps of recovery then a draw;
     segment [draws + 1] is the trailing [rest], with no draw.  A fatal
     draw ends the loop. *)
  let fatal = ref 0 and seg = ref 1 in
  while !fatal = 0 && !seg <= draws + 1 do
    (* Recovery, jumping from recovery event to recovery event: none is
       due below m = 2, and an already-overdue one (possible for
       hand-built states) fires on the next step, like a single tick. *)
    let k = ref (if !seg <= draws then ct else rest) in
    while !k > 0 do
      let due =
        if !m < 2 then !k + 1
        else begin
          let due = recov.(!m) - !clock in
          if due < 1 then 1 else due
        end
      in
      if due > !k then begin
        clock := !clock + !k;
        k := 0
      end
      else begin
        k := !k - due;
        m := !m - 1;
        clock := 0
      end
    done;
    if !seg <= draws then begin
      if !n < cur then fatal := !seg
      else begin
        (* The use_charge edge: the recovery clock resets exactly when
           recovery was not already running (m <= 1 before the draw),
           and an already-due recovery fires at the same instant — the
           recov_time table shrinks as m grows, so the jump can break
           the invariant c_recov <= recov_time[m].  A single firing
           resets the clock to 0 < recov_time[m'], so one pass
           suffices. *)
        let ck = if !m <= 1 then 0 else !clock in
        n := !n - cur;
        m := !m + cur;
        if !m >= 2 && ck >= recov.(!m) then begin
          m := !m - 1;
          clock := 0
        end
        else clock := ck;
        (* eq. (8), Discretization.is_empty written out (see the .mli) *)
        if c_m * !m >= c_n * !n then fatal := !seg
      end
    end;
    incr seg
  done;
  c.n <- !n;
  c.m <- !m;
  c.clock <- !clock;
  !fatal

let tick d c steps = ignore (serve d c ~ct:0 ~cur:0 ~draws:0 ~rest:steps)
let draw d c ~cur = ignore (serve d c ~ct:0 ~cur ~draws:1 ~rest:0)

let elapsed ~ct ~draws ~rest fatal =
  if fatal = 0 then (draws * ct) + rest else fatal * ct

let is_empty = Discretization.is_empty
let available_milli = Discretization.available_milli_units
