(* The all-integer dKiBaM transition arithmetic, shared verbatim by the
   boxed scalar path (Battery, Sched.Bank) and the struct-of-arrays
   batch engine (Batch.Engine).  Keeping the recurrences here — and
   only here — is what lets the batch engine promise bit-identical
   results: both paths call the same code, so they cannot drift.

   [serve] runs a span on the recovery timeline of Discretization (see
   its .mli): k recovery steps are one subtraction and a draw is one
   table lookup.  [serve_events] is the recurrences as eq. (6) states
   them, one recovery event at a time; it serves what the timeline does
   not cover.  Both loops run over local refs that ocamlopt keeps in
   registers: a span makes no call and allocates nothing.  [tick] and
   [draw] are [serve]'s one-segment cases. *)

type cell = { mutable n : int; mutable m : int; mutable clock : int }

module A = Bigarray.Array1

let serve_events (d : Discretization.t) c ~ct ~cur ~draws ~rest =
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
        if !m < 2 then max_int
        else begin
          let due = recov.(!m) - !clock in
          if due < 1 then 1 else due
        end
      in
      if !m < 2 || due > !k then begin
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

(* The span on the timeline.  [dt] is D_cur (read only when
   [draws > 0]).  Returns [serve]'s result, or, with the cell
   untouched, -2 when the cell is not a point of the timeline and -1
   when a draw would take m past n_units.  The points of the timeline
   are m = 1 with any clock and 2 <= m <= n_units with the next
   recovery still ahead.  The clock at m = 1, [ct] and [rest] stay
   below infinite_time (max_int / 4), so T never wraps: it only falls
   by [ct] or [rest] from a point above -max_int / 4, and a draw puts
   it back on the table. *)
let serve_timeline (d : Discretization.t) (tl : Discretization.timeline)
    (dt : Discretization.table) c ~ct ~cur ~draws ~rest =
  let m0 = c.m and clock0 = c.clock and inf = Discretization.infinite_time in
  if
    clock0 < 0 || ct >= inf || rest >= inf
    || (if m0 = 1 then clock0 >= inf
        else m0 < 2 || m0 > d.n_units || clock0 >= Array.unsafe_get d.recov_time m0)
  then -2
  else begin
    let c_of = tl.c_of and m_of = tl.m_of in
    let c_n = d.c_milli and c_m = 1000 - d.c_milli in
    let n = ref c.n in
    let t = ref (if m0 = 1 then -clock0 else A.unsafe_get c_of m0 - clock0) in
    let fatal = ref 0 and i = ref 1 in
    while !i <= draws do
      t := !t - ct;
      if !n < cur then begin
        fatal := !i;
        i := draws + 1
      end
      else begin
        (* One lookup: the landing point T' and, next to it, M(T').
           From T <= 0 (m = 1) every draw lands on D_cur(0) = C(1 + cur). *)
        let k = if !t <= 0 then 0 else 2 * !t in
        let t' = A.unsafe_get dt k in
        if t' = 0 then begin
          fatal := -1;
          i := draws + 1
        end
        else begin
          n := !n - cur;
          t := t';
          (* eq. (8) on m = M(T'), Discretization.is_empty written out *)
          if c_m * A.unsafe_get dt (k + 1) >= c_n * !n then begin
            fatal := !i;
            i := draws + 1
          end
          else incr i
        end
      end
    done;
    if !fatal >= 0 then begin
      if !fatal = 0 then t := !t - rest;
      c.n <- !n;
      if !t <= 0 then begin
        c.m <- 1;
        c.clock <- - !t
      end
      else begin
        let m = A.unsafe_get m_of !t in
        c.m <- m;
        c.clock <- A.unsafe_get c_of m - !t
      end
    end;
    !fatal
  end

(* The spans [serve_timeline] hands back ([r] < 0, the cell untouched).
   From a cell off the timeline (a fresh m = 0, an overdue or a negative
   clock) the first segment runs on the event loop, after which the
   cell is on the timeline; everything else — no tables for this span,
   a draw past n_units — is the whole span again on the event loop,
   from the cell as it came in. *)
let serve_off d tl dt c ~ct ~cur ~draws ~rest r =
  let n0 = c.n and m0 = c.m and clock0 = c.clock in
  let r =
    if r <> -2 || draws = 0 then -1
    else begin
      let f = serve_events d c ~ct ~cur ~draws:1 ~rest:0 in
      if f <> 0 then f
      else begin
        let f = serve_timeline d tl dt c ~ct ~cur ~draws:(draws - 1) ~rest in
        if f > 0 then f + 1 else f
      end
    end
  in
  if r >= 0 then r
  else begin
    c.n <- n0;
    c.m <- m0;
    c.clock <- clock0;
    serve_events d c ~ct ~cur ~draws ~rest
  end

let serve (d : Discretization.t) c ~ct ~cur ~draws ~rest =
  if ct < 0 || draws < 0 || rest < 0 then
    invalid_arg "Dkibam.Kernel: negative step or draw count";
  let tl = Atomic.get d.timeline in
  let tl = if tl.span >= 0 then tl else Discretization.timeline d in
  if tl.span < 0 || (draws > 0 && (cur < 1 || cur > Discretization.max_draw_cur))
  then serve_events d c ~ct ~cur ~draws ~rest
  else begin
    let dt =
      if draws = 0 then Discretization.no_table
      else begin
        let dt = (Array.unsafe_get tl.draw (cur - 1)).d_cur in
        if A.dim dt > 0 then dt else Discretization.draw_table d cur
      end
    in
    let r = serve_timeline d tl dt c ~ct ~cur ~draws ~rest in
    if r >= 0 then r else serve_off d tl dt c ~ct ~cur ~draws ~rest r
  end

let tick d c steps = ignore (serve d c ~ct:0 ~cur:0 ~draws:0 ~rest:steps)
let draw d c ~cur = ignore (serve d c ~ct:0 ~cur ~draws:1 ~rest:0)

let elapsed ~ct ~draws ~rest fatal =
  if fatal = 0 then (draws * ct) + rest else fatal * ct

let is_empty = Discretization.is_empty
let available_milli = Discretization.available_milli_units
