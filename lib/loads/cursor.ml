type schedule = { ct : int; cur : int; draws : int; rest : int }

type compiled = {
  c_starts : int array;
  c_lens : int array;
  c_ct : int array;
  c_cur : int array;
  c_draws : int array;
  c_rest : int array;
  c_total : int;
}

type t = {
  arrays : Arrays.t;
  flat : compiled;  (* the full-epoch schedules, unchecked *)
  scheds : schedule array;  (* the same, as records *)
  units_after : int array;  (* draw units in epochs y+1 .. end *)
  jobs : int;  (* number of non-idle epochs *)
}

let span_schedule ~ct ~cur ~skip_final span =
  if cur = 0 then { ct; cur = 0; draws = 0; rest = span }
  else begin
    let draws = span / ct in
    let draws =
      if skip_final && draws > 0 && draws * ct = span then draws - 1 else draws
    in
    { ct; cur; draws; rest = span - (draws * ct) }
  end

(* The full-epoch schedules in one pass over the encoding:
   [span_schedule ~skip_final:false] of every epoch, written out so no
   record is built.  [c_ct] and [c_cur] are the encoding's own arrays. *)
let flatten (a : Arrays.t) =
  let n = Arrays.epoch_count a in
  let c_starts = Array.make n 0 and c_lens = Array.make n 0 in
  let c_draws = Array.make n 0 and c_rest = Array.make n 0 in
  for y = 0 to n - 1 do
    let start = if y = 0 then 0 else a.load_time.(y - 1) in
    let len = a.load_time.(y) - start and ct = a.cur_times.(y) in
    let draws = if a.cur.(y) = 0 then 0 else len / ct in
    c_starts.(y) <- start;
    c_lens.(y) <- len;
    c_draws.(y) <- draws;
    c_rest.(y) <- len - (draws * ct)
  done;
  {
    c_starts;
    c_lens;
    c_ct = a.cur_times;
    c_cur = a.cur;
    c_draws;
    c_rest;
    c_total = (if n = 0 then 0 else a.load_time.(n - 1));
  }

let make (arrays : Arrays.t) =
  let flat = flatten arrays in
  let n = Array.length flat.c_lens in
  let scheds =
    Array.init n (fun y ->
        span_schedule ~ct:arrays.cur_times.(y) ~cur:arrays.cur.(y)
          ~skip_final:false flat.c_lens.(y))
  in
  let units_after = Array.make (n + 1) 0 in
  for y = n - 2 downto 0 do
    units_after.(y) <-
      units_after.(y + 1) + (flat.c_draws.(y + 1) * flat.c_cur.(y + 1))
  done;
  let jobs = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 arrays.cur in
  { arrays; flat; scheds; units_after; jobs }

let arrays t = t.arrays
let epoch_count t = Array.length t.scheds
let epoch_start t y = t.flat.c_starts.(y)
let epoch_end t y = t.arrays.load_time.(y)
let epoch_len t y = t.flat.c_lens.(y)
let total_steps t = t.flat.c_total

let is_idle t y = t.arrays.cur.(y) = 0
let job_count t = t.jobs
let schedule t y = t.scheds.(y)

let schedule_from ?(skip_final = false) t y ~local =
  let s = t.scheds.(y) in
  if local = 0 && not skip_final then s
  else begin
    if local < 0 || local > epoch_len t y then
      invalid_arg "Loads.Cursor.schedule_from: offset outside the epoch";
    span_schedule ~ct:s.ct ~cur:s.cur ~skip_final (epoch_len t y - local)
  end

let max_draw_units_within t y ~steps =
  let s = t.scheds.(y) in
  if s.cur = 0 || steps <= 0 then 0 else steps / s.ct * s.cur

let draw_units t y =
  let s = t.scheds.(y) in
  s.draws * s.cur

let draw_units_after t y = t.units_after.(y)

(* Headroom for every step counter a consumer can derive from a compiled
   schedule: absolute steps (<= c_total), per-epoch draw offsets
   (i * ct <= len) and per-epoch drawn units (draws * cur).  max_int / 4
   matches Dkibam.Discretization.infinite_time, so compiled step
   arithmetic can never cross it. *)
let max_compiled_steps = max_int / 4

let check c =
  let err field value what =
    Error
      (Guard.Error.make ~subsystem:"loads.cursor" ~field
         ~value:(string_of_int value)
         ~accepted:
           (Printf.sprintf "compiled step counters <= %d (max_int / 4)"
              max_compiled_steps)
         what)
  in
  if c.c_total > max_compiled_steps then
    err "load_time" c.c_total
      "load too long: the flat schedule would overflow the int step counters"
  else begin
    let n = Array.length c.c_cur and y = ref 0 in
    while
      !y < n
      && not (c.c_cur.(!y) > 0 && c.c_draws.(!y) > max_compiled_steps / c.c_cur.(!y))
    do
      incr y
    done;
    if !y < n then
      err "cur" c.c_cur.(!y)
        (Printf.sprintf
           "epoch %d: draws * cur would overflow the int unit counters" !y)
    else Ok c
  end

let compile_arrays a = check (flatten a)
let compile t = check t.flat

let compile_exn t =
  match compile t with Ok c -> c | Error e -> Guard.Error.raise_exn e

type event = Idle of int | Draw of int | Epoch_end

(* [i] indexes sub-events within epoch [y]: positions [0, 2*draws) pair up
   as (Idle ct, Draw cur); position [2*draws] is [Idle rest] when rest > 0;
   the last position is [Epoch_end]. *)
type pos = { y : int; i : int }

let start _t = { y = 0; i = 0 }

let next t { y; i } =
  if y >= epoch_count t then None
  else begin
    let s = t.scheds.(y) in
    let draw_events = 2 * s.draws in
    if i < draw_events then
      let ev = if i land 1 = 0 then Idle s.ct else Draw s.cur in
      Some (ev, { y; i = i + 1 })
    else if i = draw_events && s.rest > 0 then Some (Idle s.rest, { y; i = i + 1 })
    else Some (Epoch_end, { y = y + 1; i = 0 })
  end

let step t { y; i } =
  if y >= epoch_count t then total_steps t
  else begin
    let s = t.scheds.(y) in
    let within =
      if i <= 2 * s.draws then (i + 1) / 2 * s.ct
      else (s.draws * s.ct) + s.rest
    in
    epoch_start t y + within
  end

let epoch _t { y; _ } = y
