type sample = {
  s_step : int;
  s_batteries : Dkibam.Battery.t array;
  s_serving : int option;
}

type outcome = {
  lifetime_steps : int option;
  deaths : (int * int) list;
  decisions : (int * int) list;
  serving_intervals : (int * int * int) list;
  final : Dkibam.Battery.t array;
  samples : sample list;
}

exception System_dead of int

let simulate ?initial ?trace_every ?(switch_delay = 1) ~n_batteries ~policy
    (disc : Dkibam.Discretization.t) (load : Loads.Arrays.t) =
  Loads.Arrays.check_compatible load ~time_step:disc.time_step
    ~charge_unit:disc.charge_unit;
  let bank = Bank.create ?initial ~n_batteries disc in
  let cursor = Loads.Cursor.make load in
  let deaths = ref [] and decisions = ref [] and intervals = ref [] in
  let samples = ref [] in
  let policy_state = ref 0 in
  let decision_no = ref 0 in
  let record_sample step serving =
    match trace_every with
    | None -> ()
    | Some _ ->
        samples :=
          { s_step = step; s_batteries = Bank.snapshot bank; s_serving = serving }
          :: !samples
  in
  (* The running absolute step.  Recovery outside a span goes through
     [tick], which chops it into chunks so trace samples land on the
     grid; a served span advances the clock by its elapsed steps. *)
  let clock = ref 0 in
  let tick serving k =
    (match trace_every with
    | None -> Bank.tick_all bank k
    | Some every ->
        let rec go step remaining =
          if remaining > 0 then begin
            let next_grid = ((step / every) + 1) * every in
            let chunk = min remaining (next_grid - step) in
            Bank.tick_all bank chunk;
            if step + chunk = next_grid then record_sample (step + chunk) serving;
            go (step + chunk) (remaining - chunk)
          end
        in
        go !clock k);
    clock := !clock + k
  in
  let choose ~job_index ~epoch_index ~step ~mid_job =
    let ctx =
      {
        Policy.disc;
        job_index;
        epoch_index;
        step;
        mid_job;
        batteries = Bank.snapshot bank;
        alive = Bank.alive bank;
        cursor = Some cursor;
      }
    in
    let chosen = Policy.decide policy ~state:policy_state ctx in
    decisions := (!decision_no, chosen) :: !decisions;
    incr decision_no;
    chosen
  in
  (* Battery [b] serves [sch].  Untraced, the bank serves the whole span
     in one call.  Traced, the span is cut so that samples land on the
     grid: each cadence interval recovers through [tick], and each draw
     is a span of its own (no lead-in, one draw, no rest). *)
  let serve_span b (sch : Loads.Cursor.schedule) =
    match trace_every with
    | None ->
        let outcome = Bank.serve bank ~b sch in
        (clock :=
           !clock
           +
           match outcome with
           | Bank.Completed -> (sch.draws * sch.ct) + sch.rest
           | Bank.Died steps -> steps);
        outcome
    | Some _ ->
        let one_draw = { sch with ct = 0; draws = 1; rest = 0 } in
        let rec go i =
          if i > sch.draws then begin
            tick (Some b) sch.rest;
            Bank.Completed
          end
          else begin
            tick (Some b) sch.ct;
            match Bank.serve bank ~b one_draw with
            | Bank.Completed -> go (i + 1)
            | Bank.Died _ -> Bank.Died (i * sch.ct)
          end
        in
        go 1
  in
  let job_index = ref 0 in
  (* Serve one job epoch starting at absolute [start]; raises System_dead
     when the last battery dies. *)
  let serve_job y start len =
    (* [serve b local]: battery [b] serving from local offset [local];
       the draw cadence restarts here (the go_on semantics). *)
    let rec serve b local =
      let span_start = start + local in
      let sch = Loads.Cursor.schedule_from cursor y ~local in
      match serve_span b sch with
      | Bank.Completed -> intervals := (span_start, start + len, b) :: !intervals
      | Bank.Died off ->
          let local' = local + off in
          let death_step = start + local' in
          deaths := (b, death_step) :: !deaths;
          intervals := (span_start, death_step, b) :: !intervals;
          record_sample death_step None;
          if not (Bank.any_alive bank) then raise (System_dead death_step)
          else begin
            (* The emptied -> new_job -> go_on hand-over chain consumes
               [switch_delay] time steps before the replacement starts
               serving. *)
            let resume = local' + switch_delay in
            if resume < len then begin
              let b' =
                choose ~job_index:!job_index ~epoch_index:y ~step:death_step
                  ~mid_job:true
              in
              tick None switch_delay;
              serve b' resume
            end
            else if len > local' then
              (* hand-over outlives the job: burn the tail idle *)
              tick None (len - local')
          end
    in
    let b = choose ~job_index:!job_index ~epoch_index:y ~step:start ~mid_job:false in
    serve b 0;
    incr job_index
  in
  record_sample 0 None;
  let lifetime_steps =
    try
      for y = 0 to Loads.Cursor.epoch_count cursor - 1 do
        let len = Loads.Cursor.epoch_len cursor y in
        if Loads.Cursor.is_idle cursor y then tick None len
        else serve_job y !clock len
      done;
      None
    with System_dead s -> Some s
  in
  {
    lifetime_steps;
    deaths = List.rev !deaths;
    decisions = List.rev !decisions;
    serving_intervals = List.rev !intervals;
    final = Bank.snapshot bank;
    samples = List.rev !samples;
  }

(* ------------------------------------------------------------------ *)
(* Batched execution: many (load, policy) runs per call                *)
(* ------------------------------------------------------------------ *)

type batch_request = { req_load : Loads.Arrays.t; req_policy : Policy.t }
type batch_result = { res_lifetime_steps : int option; res_stranded : int }

(* The batch path defaults to on; the environment switch forces every
   lane down the scalar fallback so `dune runtest` and A/B comparisons
   can exercise it without touching call sites (mirrors
   BATSCHED_NO_BOUNDS for the branch-and-bound cuts). *)
let batch_default () =
  match Sys.getenv_opt "BATSCHED_NO_BATCH" with
  | None | Some "" -> true
  | Some _ -> false

let batch_policy_of = function
  | Policy.Sequential -> Some Batch.Engine.Sequential
  | Policy.Round_robin -> Some Batch.Engine.Round_robin
  | Policy.Best_of -> Some Batch.Engine.Best_of
  | Policy.Fixed sched -> Some (Batch.Engine.Fixed sched)
  | Policy.Custom _ -> None

let scalar_one ?switch_delay ~n_batteries disc r =
  let o =
    simulate ?switch_delay ~n_batteries ~policy:r.req_policy disc r.req_load
  in
  {
    res_lifetime_steps = o.lifetime_steps;
    res_stranded = Bank.stranded_units o.final;
  }

(* Loads keyed on physical identity.  The hash reads up to eight epochs
   spread over the encoding, timings and currents both.  The structural
   [Hashtbl.hash] reads only the first eight [load_time] entries: on
   the 2,048 distinct loads of one 40-slot on/off Monte Carlo block it
   gave 1,116 distinct values, up to 48 loads on one; this gives 2,048. *)
module Phys = Hashtbl.Make (struct
  type t = Loads.Arrays.t

  let equal = ( == )

  let hash (a : t) =
    let n = Array.length a.load_time in
    let s = min n 8 and h = ref n in
    for k = 0 to s - 1 do
      let y = if s = 1 then 0 else k * (n - 1) / (s - 1) in
      h := (!h * 65599) + a.load_time.(y);
      h := (!h * 65599) + (a.cur.(y) lsl 16) + a.cur_times.(y)
    done;
    Hashtbl.hash !h
end)

let run_batch ?pool ?switch_delay ?(chunk = 4096) ?batch ~n_batteries disc
    requests =
  if chunk < 1 then invalid_arg "Sched.Simulator.run_batch: chunk must be >= 1";
  let n = Array.length requests in
  let use_batch = match batch with Some b -> b | None -> batch_default () in
  (* Compile each distinct load once (lanes typically share loads: the
     ensemble packs one lane per policy per load).  A load whose
     compiled schedule is refused — the step-counter overflow guard —
     silently keeps its lanes on the scalar path, which handles long
     loads with the same int arithmetic the cursor iterator uses. *)
  let slots = Phys.create n and compiled = ref [] and n_compiled = ref 0 in
  let slot_of load =
    match Phys.find_opt slots load with
    | Some slot -> slot
    | None ->
        let slot =
          match Loads.Cursor.compile_arrays load with
          | Ok c ->
              compiled := c :: !compiled;
              incr n_compiled;
              Some (!n_compiled - 1)
          | Error _ -> None
        in
        Phys.add slots load slot;
        slot
  in
  let lane_of i =
    match batch_policy_of requests.(i).req_policy with
    | Some policy when use_batch ->
        Option.map
          (fun load -> { Batch.Engine.load; policy })
          (slot_of requests.(i).req_load)
    | _ -> None
  in
  let lanes = Array.init n lane_of in
  let loads = Array.of_list (List.rev !compiled) in
  let batch_idx, scalar_idx =
    List.partition (fun i -> Option.is_some lanes.(i)) (List.init n Fun.id)
  in
  let batch_idx = Array.of_list batch_idx in
  (* Work items: the batched lanes chopped into [chunk]-lane batches
     (each its own State.t, so batches fan out across the pool without
     sharing mutable state), plus one item per scalar-fallback lane. *)
  let n_batch = Array.length batch_idx in
  let batch_chunks =
    List.init
      ((n_batch + chunk - 1) / chunk)
      (fun c -> Array.sub batch_idx (c * chunk) (min chunk (n_batch - (c * chunk))))
  in
  let run_chunk idxs =
    let chunk_lanes = Array.map (fun i -> Option.get lanes.(i)) idxs in
    let st =
      Batch.Engine.run ?switch_delay ~n_batteries disc ~loads ~lanes:chunk_lanes
    in
    Array.mapi
      (fun k i ->
        ( i,
          {
            res_lifetime_steps = Batch.State.lifetime_steps st k;
            res_stranded = Batch.State.stranded st k;
          } ))
      idxs
  in
  let work =
    List.map (fun idxs () -> run_chunk idxs) batch_chunks
    @ List.map
        (fun i () -> [| (i, scalar_one ?switch_delay ~n_batteries disc requests.(i)) |])
        scalar_idx
  in
  let outs =
    match pool with
    | Some p -> Exec.Pool.parallel_list_map ~chunk:1 p (fun f -> f ()) work
    | None -> List.map (fun f -> f ()) work
  in
  let results =
    Array.make n { res_lifetime_steps = None; res_stranded = 0 }
  in
  List.iter (Array.iter (fun (i, r) -> results.(i) <- r)) outs;
  results

let lifetime ?switch_delay ~n_batteries ~policy disc load =
  match (simulate ?switch_delay ~n_batteries ~policy disc load).lifetime_steps with
  | Some s -> Some (Dkibam.Discretization.minutes_of_steps disc s)
  | None -> None

let lifetime_exn ?switch_delay ~n_batteries ~policy disc load =
  match lifetime ?switch_delay ~n_batteries ~policy disc load with
  | Some t -> t
  | None ->
      failwith
        "Sched.Simulator.lifetime_exn: batteries outlived the load; extend \
         the horizon"
