(* Admissible bounds from the KiBaM physics — see the .mli for the
   derivations.  Everything load-shaped is precomputed here, as suffix
   arrays and as the availability bound's hull tree, so a per-position
   query costs O(batteries + log^2 epochs). *)

type t = {
  disc : Dkibam.Discretization.t;
  cursor : Loads.Cursor.t;
  switch_delay : int;
  skip01 : int;  (* 1 when the final-draw skip is a legal choice *)
  min_units_after : int array;
      (* [e] -> fewest units epochs [e..] can be made to demand *)
  draws_after : int array;  (* [e] -> canonical draw count of epochs [e..] *)
  max_cur_after : int array;  (* [e] -> largest per-draw current in [e..] *)
  hulls : hulls option;  (* [None]: products could overflow; queries scan *)
}

(* The availability bound's crossing search.  For every epoch [e] after
   the query's own, [avail_ub]'s test "minimum demand at [e]'s last draw
   outruns supply plus gain" reads [A_e - g*T_e > C]: [T_e] (the step of
   the last draw) and [A_e = -scale * min_units_after (e+1)] are fixed
   per load, the gain slope [g] and the constant [C] per query.  Only
   job epochs with at least one draw can cross, so they are the points,
   in epoch order (their [T_e] strictly increase).  A segment tree over
   the points holds, per node, the upper convex hull of its range; a
   node's maximum of [A - g*T] sits on its hull where the edge slope
   drops to [g] (a binary search), and the first point above the line
   is found by descending through O(log points) nodes: O(log^2 points)
   per query, O(points * log points) to build. *)
and hulls = {
  px : int array;  (* point -> T_e *)
  py : int array;  (* point -> -min_units_after (e+1), so A_e = scale * py *)
  pe : int array;  (* point -> e *)
  first : int array;  (* epoch y -> first point with epoch >= y *)
  off : int array;  (* tree node -> start of its hull in [hull] *)
  len : int array;  (* tree node -> hull size *)
  hull : int array;  (* every node's hull, as point indices, left to right *)
  g_max : int;  (* largest [g] for which [g * T] cannot overflow *)
}

let infinite = max_int / 4

(* Demand is compared in micro-units: [scale] per charge unit. *)
let scale = 1_000_000

(* Every product the hull tree forms stays within [lim] in magnitude, so
   sums of two or three of them never wrap.  A load whose magnitudes
   could break that, or a query whose slope could, takes the epoch
   scan, which gives the same value by definition. *)
let lim = max_int / 4

let build_hulls cursor ~min_units_after =
  let e_count = Loads.Cursor.epoch_count cursor in
  let is_point e =
    let sch = Loads.Cursor.schedule cursor e in
    sch.cur > 0 && sch.draws > 0
  in
  let np = ref 0 in
  for e = 0 to e_count - 1 do
    if is_point e then incr np
  done;
  let np = !np in
  let px = Array.make np 0 and py = Array.make np 0 and pe = Array.make np 0 in
  let first = Array.make (e_count + 1) np in
  let i = ref 0 in
  for e = 0 to e_count - 1 do
    first.(e) <- !i;
    if is_point e then begin
      let sch = Loads.Cursor.schedule cursor e in
      px.(!i) <- Loads.Cursor.epoch_start cursor e + (sch.draws * sch.ct);
      py.(!i) <- -min_units_after.(e + 1);
      pe.(!i) <- e;
      incr i
    end
  done;
  (* |dT| <= steps and |dA/scale| <= units bound every hull coordinate
     difference; a cross product is two such products *)
  let steps = max 1 (Loads.Cursor.total_steps cursor)
  and units = min_units_after.(0) in
  if np = 0 || units > lim / scale || (units > 0 && steps > lim / 2 / units)
  then None
  else begin
    let rec levels n = if n <= 1 then 1 else 1 + levels ((n + 1) / 2) in
    let hull = Array.make (np * levels np) 0 in
    let off = Array.make (4 * np) 0 and len = Array.make (4 * np) 0 in
    let w = ref 0 in
    let cross o a p =
      ((px.(a) - px.(o)) * (py.(p) - py.(o)))
      - ((py.(a) - py.(o)) * (px.(p) - px.(o)))
    in
    (* Append [p] to the upper hull growing from [base]: pop while the
       last two points and [p] do not turn clockwise. *)
    let push base p =
      while !w - base >= 2 && cross hull.(!w - 2) hull.(!w - 1) p >= 0 do
        decr w
      done;
      hull.(!w) <- p;
      incr w
    in
    (* A node's hull is the hull of its children's hulls, which come
       left to right in T order: one monotone-chain pass. *)
    let rec build k lo hi =
      if hi - lo = 1 then begin
        off.(k) <- !w;
        push !w lo
      end
      else begin
        let mid = (lo + hi) / 2 in
        build (2 * k) lo mid;
        build ((2 * k) + 1) mid hi;
        let base = !w in
        off.(k) <- base;
        for c = 2 * k to (2 * k) + 1 do
          for j = off.(c) to off.(c) + len.(c) - 1 do
            push base hull.(j)
          done
        done
      end;
      len.(k) <- !w - off.(k)
    in
    build 1 0 np;
    Some { px; py; pe; first; off; len; hull; g_max = lim / steps }
  end

let create ?(switch_delay = 1) ?(allow_final_draw_skip = false)
    ?(hull_tree = true) disc cursor =
  let e_count = Loads.Cursor.epoch_count cursor in
  let skip01 = if allow_final_draw_skip then 1 else 0 in
  let min_units_after = Array.make (e_count + 1) 0 in
  let draws_after = Array.make (e_count + 1) 0 in
  let max_cur_after = Array.make (e_count + 1) 0 in
  for e = e_count - 1 downto 0 do
    let sch = Loads.Cursor.schedule cursor e in
    let min_draws = if sch.cur = 0 then 0 else max 0 (sch.draws - skip01) in
    min_units_after.(e) <- min_units_after.(e + 1) + (min_draws * sch.cur);
    draws_after.(e) <- draws_after.(e + 1) + sch.draws;
    max_cur_after.(e) <- max max_cur_after.(e + 1) sch.cur
  done;
  { disc; cursor; switch_delay; skip01; min_units_after; draws_after;
    max_cur_after;
    hulls = (if hull_tree then build_hulls cursor ~min_units_after else None) }

(* Least [e] in [lo, hi] with [base - suffix.(e + 1) >= need]: a
   suffix sum falls with [e], so the test is false then true; callers
   guarantee it holds at [hi]. *)
let first_reaching suffix ~base ~need lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if base - suffix.(mid + 1) >= need then hi := mid else lo := mid + 1
  done;
  !hi

let alive_count bank =
  let a = ref 0 in
  for i = 0 to Bank.size bank - 1 do
    if not (Bank.is_dead bank i) then incr a
  done;
  !a

let alive_units bank =
  let u = ref 0 in
  for i = 0 to Bank.size bank - 1 do
    if not (Bank.is_dead bank i) then u := !u + Bank.n_gamma bank i
  done;
  !u

(* Step of the draw that takes epoch [e]'s minimum cumulative demand
   past [over] units, restarting the cadence at [local]; the caller
   guarantees the epoch's own minimum demand does exceed [over]. *)
let crossing_step t e ~local ~over =
  let sch = Loads.Cursor.schedule_from t.cursor e ~local in
  let k = (over / sch.cur) + 1 + t.skip01 in
  Loads.Cursor.epoch_start t.cursor e + local + (k * sch.ct)

(* Constraint 1: total charge.  Earliest step whose minimum cumulative
   demand exceeds the alive batteries' total charge plus the per-death
   draw-loss slack, minus one; [infinite] when the whole remaining
   demand fits. *)
let charge_ub t ~y ~local bank a cmax =
  (* supply + the draws the demand envelope can lose: each of the
     at most [A] remaining deaths costs one fatal draw plus at most
     [switch_delay] cadence-restart draws (one extra for margin) *)
  let slack = a * (t.switch_delay + 2) * cmax in
  let u = alive_units bank + slack in
  let sch_y = Loads.Cursor.schedule_from t.cursor y ~local in
  let min_draws_y =
    if sch_y.cur = 0 then 0 else max 0 (sch_y.draws - t.skip01)
  in
  let units_y = min_draws_y * sch_y.cur in
  if units_y + t.min_units_after.(y + 1) <= u then infinite
  else if units_y > u then (crossing_step t y ~local ~over:u) - 1
  else begin
    let u = u - units_y in
    let base = t.min_units_after.(y + 1) in
    let e =
      first_reaching t.min_units_after ~base ~need:(u + 1) (y + 1)
        (Loads.Cursor.epoch_count t.cursor - 1)
    in
    crossing_step t e ~local:0 ~over:(u - (base - t.min_units_after.(e))) - 1
  end

(* The maximum of [scale * py - g * px] over node [k]'s points: on its
   hull, at the first edge whose slope is at most [g / scale] (hull
   slopes fall from left to right), or at the last point. *)
let node_max h ~g k =
  let o = h.off.(k) in
  let lo = ref 0 and hi = ref (h.len.(k) - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let a = h.hull.(o + mid) and b = h.hull.(o + mid + 1) in
    if scale * (h.py.(b) - h.py.(a)) <= g * (h.px.(b) - h.px.(a)) then hi := mid
    else lo := mid + 1
  done;
  let p = h.hull.(o + !lo) in
  (scale * h.py.(p)) - (g * h.px.(p))

(* First point [>= from] of node [k] (covering points [lo, hi)) with
   [scale * py - g * px > c], or [-1].  Nodes wholly at or after [from]
   are skipped on their hull maximum; at most O(log) nodes straddle
   [from], and the first node that passes is descended into. *)
let rec first_above h ~g ~c ~from k lo hi =
  if hi <= from then -1
  else if lo >= from && node_max h ~g k <= c then -1
  else if hi - lo = 1 then lo
  else begin
    let mid = (lo + hi) / 2 in
    let r = first_above h ~g ~c ~from (2 * k) lo mid in
    if r >= 0 then r else first_above h ~g ~c ~from ((2 * k) + 1) mid hi
  end

(* Constraint 2: available charge against the recovery-rate ceiling.
   Serving [D] units costs exactly [1000*D] milli-units of available
   charge; recovery refunds [1000 - c] per event, and an alive battery
   holding [n] total units can never be higher than
   [m_cap = (c*n - 1) / (1000 - c)] (any higher is empty), so its event
   cadence is at least [recov_time (m_cap + cmax)] steps — a per-step
   gain ceiling that only tightens as the battery drains.  The first
   step where the minimum cumulative demand outruns available charge
   plus maximal recovery gain (plus the per-death slacks) is therefore
   unreachable alive.  All arithmetic is in micro-units (milli * 1000)
   so the per-step gain ceiling can be rounded up, not down.

   [epoch_cross] checks one epoch [e], restarted at [local], with
   [served] units of minimum demand before it: within a serving epoch
   demand rises linearly per draw while the gain ceiling rises linearly
   per step, so a violated epoch pins the crossing draw by a division.
   Returns the crossing step, or [infinite] when the epoch does not
   cross. *)
let epoch_cross t ~gnum ~supply ~now e ~local ~served =
  let sch = Loads.Cursor.schedule_from t.cursor e ~local in
  let es = Loads.Cursor.epoch_start t.cursor e in
  if sch.cur = 0 then infinite
  else begin
    let min_draws = max 0 (sch.draws - t.skip01) in
    let t_end = es + local + (sch.draws * sch.ct) in
    let demand_end = scale * (served + (min_draws * sch.cur)) in
    if demand_end <= supply + (gnum * (t_end - now)) then infinite
    else begin
      (* least k >= 1 with
         10^6*(served + (k - skip01)*cur) > supply + gnum*(es+local+k*ct - now) *)
      let coeff = (scale * sch.cur) - (gnum * sch.ct) in
      (* demand_end > RHS(t_end) and no crossing at entry force a
         positive within-epoch slope *)
      if coeff <= 0 then infinite
      else begin
        let rhs =
          supply
          + (gnum * (es + local - now))
          - (scale * (served - (t.skip01 * sch.cur)))
        in
        let k = max 1 ((rhs / coeff) + 1) in
        if k <= sch.draws then es + local + (k * sch.ct) - 1 else infinite
      end
    end
  end

let avail_ub_of t ~y ~local bank a cmax =
  let disc = t.disc in
  let c = disc.Dkibam.Discretization.c_milli in
  let n_units = disc.Dkibam.Discretization.n_units in
  (* gain ceiling: [gnum] micro-units per step (rounded up) plus one
     whole event per battery of constant margin; supply in micro-units,
     available now *)
  let gnum = ref 0 and gcon = ref 0 and avail = ref 0 in
  for i = 0 to Bank.size bank - 1 do
    if not (Bank.is_dead bank i) then begin
      let n = Bank.n_gamma bank i and m = Bank.m_delta bank i in
      (* a battery that serves nothing adds nothing, so its term is at
         least 0: a hand-built initial state can be alive yet empty by
         eq. (8), with negative available charge, and counting that
         charge would pull the bound below lives it can still reach *)
      avail :=
        !avail + max 0 (Dkibam.Discretization.available_milli_units disc ~n ~m);
      let m_cap = ((c * n) - 1) / (1000 - c) in
      (* weird hand-built initial states can sit above the alive
         ceiling until their first draw; never below the actual m *)
      let m_ceil = min n_units (max m_cap m + cmax) in
      if m_ceil >= 2 then begin
        let rt = Dkibam.Discretization.recov_time disc m_ceil in
        gnum := !gnum + ((((1000 - c) * 1000) + rt - 1) / rt);
        gcon := !gcon + (1000 - c)
      end
    end
  done;
  let gnum = !gnum in
  (* plus the per-death fatal-draw overdraw, the per-death
     cadence-restart losses, and the constant rounding margin of the
     gain ceiling *)
  let supply =
    (1000 * !avail)
    + (1000 * a * (t.switch_delay + 3) * cmax * 1000)
    + (1000 * !gcon)
  in
  let now = Loads.Cursor.epoch_start t.cursor y + local in
  let s_y = epoch_cross t ~gnum ~supply ~now y ~local ~served:0 in
  if s_y < infinite then s_y
  else begin
    (* every later epoch [e] enters with [u0 - min_units_after e] units
       of minimum demand served *)
    let sch_y = Loads.Cursor.schedule_from t.cursor y ~local in
    let units_y =
      if sch_y.cur = 0 then 0 else max 0 (sch_y.draws - t.skip01) * sch_y.cur
    in
    let u0 = units_y + t.min_units_after.(y + 1) in
    let s = ref infinite in
    (match t.hulls with
    | Some h when gnum <= h.g_max && supply <= lim && supply >= -lim ->
        (* the epoch test [demand_end > supply + gnum*(T_e - now)],
           rearranged as [A_e - gnum*T_e > c]; the division decides,
           and should it not cross at the point found, the search
           resumes after it, as the scan would *)
        let c = supply - (gnum * now) - (scale * u0) in
        let np = Array.length h.px in
        let i = ref h.first.(y + 1) in
        while !i < np do
          let j = first_above h ~g:gnum ~c ~from:!i 1 0 np in
          if j < 0 then i := np
          else begin
            let e = h.pe.(j) in
            s :=
              epoch_cross t ~gnum ~supply ~now e ~local:0
                ~served:(u0 - t.min_units_after.(e));
            i := if !s < infinite then np else j + 1
          end
        done
    | _ ->
        let e_count = Loads.Cursor.epoch_count t.cursor in
        let e = ref (y + 1) in
        while !e < e_count do
          s :=
            epoch_cross t ~gnum ~supply ~now !e ~local:0
              ~served:(u0 - t.min_units_after.(!e));
          e := if !s < infinite then e_count else !e + 1
        done);
    !s
  end

let avail_ub t ~y ~local bank =
  let a = alive_count bank in
  if a = 0 then 0
  else
    let cmax = t.max_cur_after.(y) in
    if cmax = 0 then infinite else avail_ub_of t ~y ~local bank a cmax

let lifetime_ub t ~y ~local bank =
  let a = alive_count bank in
  if a = 0 then 0
  else
    let cmax = t.max_cur_after.(y) in
    if cmax = 0 then infinite
    else
      min
        (charge_ub t ~y ~local bank a cmax)
        (avail_ub_of t ~y ~local bank a cmax)

let lifetime_lb t ~y ~local bank =
  let cmax = t.max_cur_after.(y) in
  if cmax = 0 then infinite
  else begin
    (* fewest draw events that can kill the whole bank: per battery,
       the available charge drops by at most 1000*cmax milli-units per
       draw (eq. (8) route) and the total charge by at most cmax units
       (insufficient-charge route) *)
    let d_min = ref 0 in
    for i = 0 to Bank.size bank - 1 do
      if not (Bank.is_dead bank i) then begin
        let n = Bank.n_gamma bank i in
        let avail =
          Dkibam.Discretization.available_milli_units t.disc ~n
            ~m:(Bank.m_delta bank i)
        in
        let d_empty =
          if avail <= 0 then 1 else (avail + (1000 * cmax) - 1) / (1000 * cmax)
        in
        let d_lack = (n / cmax) + 1 in
        d_min := !d_min + max 1 (min d_empty d_lack)
      end
    done;
    let d_min = !d_min in
    if d_min = 0 then 0
    else begin
      let sch_y = Loads.Cursor.schedule_from t.cursor y ~local in
      if d_min > sch_y.draws + t.draws_after.(y + 1) then infinite
      else if d_min <= sch_y.draws then
        Loads.Cursor.epoch_start t.cursor y + local + (d_min * sch_y.ct)
      else begin
        let rem = d_min - sch_y.draws in
        let base = t.draws_after.(y + 1) in
        let e =
          first_reaching t.draws_after ~base ~need:rem (y + 1)
            (Loads.Cursor.epoch_count t.cursor - 1)
        in
        let k = rem - (base - t.draws_after.(e)) in
        Loads.Cursor.epoch_start t.cursor e
        + (k * (Loads.Cursor.schedule t.cursor e).ct)
      end
    end
  end

let stranded_lb t ~y ~local bank =
  let n = Bank.size bank in
  let s_dead = ref 0 and s_alive = ref 0 in
  for i = 0 to n - 1 do
    let units = Bank.n_gamma bank i in
    if Bank.is_dead bank i then s_dead := !s_dead + units
    else s_alive := !s_alive + units
  done;
  let sch_y = Loads.Cursor.schedule_from t.cursor y ~local in
  let r_max =
    (sch_y.draws * sch_y.cur) + Loads.Cursor.draw_units_after t.cursor y
  in
  !s_dead + max 0 (!s_alive - r_max)
