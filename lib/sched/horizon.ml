(* Observability: one [horizon.plans] tick per lookahead search, with
   the mid-job subset double-counted under [horizon.replans] (deaths
   force an unscheduled re-plan) and budget-tripped plans — the ones
   answered by the fallback heuristic — under [horizon.budget_trips]. *)
let c_plans = Obs.counter "horizon.plans"
let c_replans = Obs.counter "horizon.replans"
let c_trips = Obs.counter "horizon.budget_trips"

type fallback = Best_of | Round_robin

(* Per-run planning state.  The simulator builds a fresh cursor per run,
   so keying on cursor identity gives every simulation its own planner:
   memo reuse never crosses runs (per-decision budget trips stay a
   deterministic function of the run alone) and never crosses domains
   (each run executes on one domain; the cache lives in domain-local
   storage, so no locks — the exec-layer rule). *)
type entry = {
  e_cursor : Loads.Cursor.t;
  e_switch_delay : int;
  e_shared : Memo.scope option;
  e_planner : Optimal.planner;
  e_job_epochs : int array;  (* epoch index of each job, in order *)
  e_epoch_count : int;
}

let cache : entry list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cache_cap = 8

let entry_for ~switch_delay ~shared (disc : Dkibam.Discretization.t)
    (cursor : Loads.Cursor.t) =
  let slot = Domain.DLS.get cache in
  let hit e =
    e.e_cursor == cursor && e.e_switch_delay = switch_delay
    &&
    match (e.e_shared, shared) with
    | None, None -> true
    | Some a, Some b -> Memo.scope_equal a b
    | _ -> false
  in
  match List.find_opt hit !slot with
  | Some e ->
      slot := e :: List.filter (fun e' -> not (hit e')) !slot;
      e
  | None ->
      let epoch_count = Loads.Cursor.epoch_count cursor in
      let job_epochs =
        Array.of_list
          (List.filter
             (fun y -> not (Loads.Cursor.is_idle cursor y))
             (List.init epoch_count Fun.id))
      in
      let e =
        {
          e_cursor = cursor;
          e_switch_delay = switch_delay;
          e_shared = shared;
          e_planner = Optimal.planner ~switch_delay ?shared disc cursor;
          e_job_epochs = job_epochs;
          e_epoch_count = epoch_count;
        }
      in
      slot := e :: (if List.length !slot >= cache_cap then
                      List.filteri (fun i _ -> i < cache_cap - 1) !slot
                    else !slot);
      e

(* Stateless cyclic fallback: the round-robin cycle derived from the job
   index alone (no cross-decision state, so the choice is a pure
   function of the decision context — deterministic across lanes, pools
   and re-runs). *)
let cyclic (ctx : Policy.decision_context) =
  let n = Array.length ctx.batteries in
  let rec find k count =
    if count >= n then List.hd ctx.alive
    else if List.mem (k mod n) ctx.alive then k mod n
    else find (k + 1) (count + 1)
  in
  find (ctx.job_index mod n) 0

let policy ?(switch_delay = 1) ?shared ?budget_segments
    ?(fallback = Best_of) ~k () =
  if k < 1 then invalid_arg "Sched.Horizon.policy: k must be >= 1";
  (match budget_segments with
  | Some n when n < 1 ->
      invalid_arg "Sched.Horizon.policy: budget_segments must be >= 1"
  | _ -> ());
  let decide (ctx : Policy.decision_context) =
    let cursor =
      match ctx.cursor with
      | Some c -> c
      | None ->
          invalid_arg
            "Sched.Horizon: this driver provides no load cursor to plan over"
    in
    let e = entry_for ~switch_delay ~shared ctx.disc cursor in
    (* Window: jobs [job_index .. job_index + k - 1]; the frontier is the
       epoch of job [job_index + k], or past the load when fewer jobs
       remain (then the plan is the exact optimal suffix search). *)
    let jf = ctx.job_index + k in
    let frontier_epoch =
      if jf >= Array.length e.e_job_epochs then e.e_epoch_count
      else e.e_job_epochs.(jf)
    in
    (* Mirror the simulator's hand-over semantics: at a mid-job
       replacement the switch delay elapses after the policy is
       consulted, so plan from the post-delay state. *)
    let delay = if ctx.mid_job then switch_delay else 0 in
    let bank =
      Bank.of_parts ctx.disc ~batteries:ctx.batteries
        ~dead:
          (Array.init (Array.length ctx.batteries) (fun i ->
               not (List.mem i ctx.alive)))
    in
    Bank.tick_all bank delay;
    let budget =
      Option.map
        (fun n -> Guard.Budget.create ~max_segments:n ())
        budget_segments
    in
    Obs.incr c_plans;
    if ctx.mid_job then Obs.incr c_replans;
    match
      Optimal.plan ?budget e.e_planner ~frontier_epoch ~y:ctx.epoch_index
        ~local:(ctx.step - Loads.Cursor.epoch_start cursor ctx.epoch_index
                + delay)
        bank
    with
    | Some p -> p.Optimal.plan_choice
    | None -> (
        Obs.incr c_trips;
        match fallback with
        | Best_of -> Policy.best_of ctx
        | Round_robin -> cyclic ctx)
  in
  Policy.Custom decide

let name ?budget_segments ~k () =
  match budget_segments with
  | None -> Printf.sprintf "horizon-%d" k
  | Some n -> Printf.sprintf "horizon-%d(budget %d)" k n
