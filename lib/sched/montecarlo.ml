(* Monte Carlo fleet driver — see the .mli for the reduction layout and
   the determinism contract.

   Observability: [stoch.samples] counts device traces drawn,
   [stoch.traces] counts policy runs (samples x policies), and the
   whole estimation runs under the [montecarlo.run] span. *)
let c_samples = Obs.counter "stoch.samples"
let c_traces = Obs.counter "stoch.traces"
let s_run = Obs.span "montecarlo.run"

type model = Onoff of Stoch.Onoff.t | Env of Stoch.Env.t

let model_name = function Onoff _ -> "onoff" | Env _ -> "env"

let sample_load model ~seed =
  match model with
  | Onoff m -> Stoch.Onoff.sample m ~seed
  | Env m -> Stoch.Env.sample m ~seed

let sample_arrays model ~seed (disc : Dkibam.Discretization.t) =
  let time_step = disc.time_step and charge_unit = disc.charge_unit in
  match model with
  | Onoff m -> Stoch.Onoff.arrays m ~seed ~time_step ~charge_unit
  | Env m -> Stoch.Env.arrays m ~seed ~time_step ~charge_unit

type death_before = {
  db_deadline_min : float;
  db_deaths : int;
  db_fraction : float;
  db_ci_low : float;
  db_ci_high : float;
}

type policy_summary = {
  ps_policy : string;
  ps_deaths : int;
  ps_survived : int;
  ps_mean : float;
  ps_stddev : float;
  ps_quantiles : (float * float) list;
  ps_death_before : death_before option;
}

type dominance = {
  dom_a : string;
  dom_b : string;
  dom_a_wins : int;
  dom_b_wins : int;
  dom_ties : int;
  dom_a_fraction : float;
  dom_ci_low : float;
  dom_ci_high : float;
}

type t = {
  mc_model : string;
  mc_seed : int64;
  mc_n_batteries : int;
  mc_samples_requested : int;
  mc_samples : int;
  mc_tripped : Guard.Budget.trip option;
  mc_policies : policy_summary list;
  mc_dominance : dominance list;
}

let default_policies =
  [
    ("sequential", Policy.Sequential);
    ("round robin", Policy.Round_robin);
    ("best-of", Policy.Best_of);
  ]

let run ?pool ?budget ?batch ?switch_delay ?(block = 2048)
    ?(quantiles = [ 0.05; 0.25; 0.5; 0.75; 0.95 ]) ?deadline_min
    ?(policies = default_policies) ?(n_batteries = 2) ~seed ~samples model
    (disc : Dkibam.Discretization.t) =
  if samples < 1 then invalid_arg "Sched.Montecarlo.run: need >= 1 sample";
  if block < 1 then invalid_arg "Sched.Montecarlo.run: block must be >= 1";
  if policies = [] then invalid_arg "Sched.Montecarlo.run: need >= 1 policy";
  List.iter
    (fun q ->
      if not (q > 0.0 && q < 1.0) then
        invalid_arg "Sched.Montecarlo.run: quantiles must lie in (0, 1)")
    quantiles;
  (match deadline_min with
  | Some d when not (d > 0.0) ->
      invalid_arg "Sched.Montecarlo.run: deadline_min must be positive"
  | _ -> ());
  Obs.time s_run @@ fun () ->
  let n_pol = List.length policies in
  let policy_arr = Array.of_list policies in
  let q_arr = Array.of_list (List.sort_uniq compare quantiles) in
  (* Per-policy streaming accumulators: constant memory however many
     samples run. *)
  let moments = Array.init n_pol (fun _ -> Stoch.Sketch.Moments.create ()) in
  let sketches =
    Array.init n_pol (fun _ -> Array.map Stoch.Sketch.P2.create q_arr)
  in
  let deaths = Array.make n_pol 0 in
  let survived = Array.make n_pol 0 in
  let early = Array.make n_pol 0 in
  let wins = Array.make_matrix n_pol n_pol 0 in
  let ties = Array.make_matrix n_pol n_pol 0 in
  let completed = ref 0 in
  let tripped =
    ref (match budget with Some b -> Guard.Budget.tripped b | None -> None)
  in
  while !tripped = None && !completed < samples do
    let b = min block (samples - !completed) in
    let base = !completed in
    (* Generation is serial on the submitting domain, lane seeds split
       from the root up front — sample [base + k] sees the same stream
       whatever block size or pool ran the rest of the fleet. *)
    let loads =
      Array.init b (fun k ->
          Obs.incr c_samples;
          sample_arrays model ~seed:(Prng.Splitmix.split seed (base + k)) disc)
    in
    (* Common random numbers: every policy runs the same sampled loads,
       so the dominance counts below compare paired lifetimes. *)
    let requests =
      Array.init (b * n_pol) (fun k ->
          {
            Simulator.req_load = loads.(k / n_pol);
            req_policy = snd policy_arr.(k mod n_pol);
          })
    in
    Obs.add c_traces (Array.length requests);
    (* A chunk well below the block's lane count, so a pool actually
       has work items to fan out; slot [i] of the result is request
       [i] regardless, per the run_batch contract. *)
    let results =
      Simulator.run_batch ?pool ?switch_delay ?batch ~chunk:1024 ~n_batteries
        disc requests
    in
    (* Serial reduction in sample order — the only fold the sketches
       ever see, hence independence from --jobs and batch/scalar. *)
    for k = 0 to b - 1 do
      let horizon =
        lazy
          (let lt = loads.(k).Loads.Arrays.load_time in
           Dkibam.Discretization.minutes_of_steps disc
             lt.(Array.length lt - 1))
      in
      for p = 0 to n_pol - 1 do
        let r = results.((k * n_pol) + p) in
        let minutes =
          match r.Simulator.res_lifetime_steps with
          | Some s ->
              deaths.(p) <- deaths.(p) + 1;
              let m = Dkibam.Discretization.minutes_of_steps disc s in
              (match deadline_min with
              | Some d when m < d -> early.(p) <- early.(p) + 1
              | _ -> ());
              m
          | None ->
              (* the batteries outlived the trace: a right-censored
                 observation, recorded at the trace's horizon *)
              survived.(p) <- survived.(p) + 1;
              Lazy.force horizon
        in
        Stoch.Sketch.Moments.add moments.(p) minutes;
        Array.iter (fun s -> Stoch.Sketch.P2.add s minutes) sketches.(p)
      done;
      for i = 0 to n_pol - 1 do
        for j = i + 1 to n_pol - 1 do
          let li = results.((k * n_pol) + i).Simulator.res_lifetime_steps in
          let lj = results.((k * n_pol) + j).Simulator.res_lifetime_steps in
          match (li, lj) with
          | None, None -> ties.(i).(j) <- ties.(i).(j) + 1
          | None, Some _ -> wins.(i).(j) <- wins.(i).(j) + 1
          | Some _, None -> () (* j's win is derived from the totals *)
          | Some si, Some sj ->
              if si > sj then wins.(i).(j) <- wins.(i).(j) + 1
              else if si = sj then ties.(i).(j) <- ties.(i).(j) + 1
        done
      done
    done;
    completed := !completed + b;
    (* Anytime cutoff: charge one work unit per sample, check between
       blocks — a count-based budget trips at a deterministic sample
       count (block granularity); the fully-reduced prefix is the
       partial estimate. *)
    match budget with
    | None -> ()
    | Some bu ->
        Guard.Budget.charge_segments bu b;
        tripped := Guard.Budget.tripped bu
  done;
  let n = !completed in
  let mc_policies =
    List.mapi
      (fun p (name, _) ->
        {
          ps_policy = name;
          ps_deaths = deaths.(p);
          ps_survived = survived.(p);
          ps_mean = Stoch.Sketch.Moments.mean moments.(p);
          ps_stddev = Stoch.Sketch.Moments.stddev moments.(p);
          ps_quantiles =
            Array.to_list
              (Array.mapi
                 (fun qi q ->
                   Option.map
                     (fun v -> (q, v))
                     (Stoch.Sketch.P2.quantile sketches.(p).(qi)))
                 q_arr)
            |> List.filter_map Fun.id;
          ps_death_before =
            Option.map
              (fun d ->
                let frac, lo, hi =
                  Stoch.Sketch.proportion_ci ~count:early.(p) ~total:n
                in
                {
                  db_deadline_min = d;
                  db_deaths = early.(p);
                  db_fraction = frac;
                  db_ci_low = lo;
                  db_ci_high = hi;
                })
              deadline_min;
        })
      policies
  in
  let mc_dominance = ref [] in
  for i = n_pol - 1 downto 0 do
    for j = n_pol - 1 downto i + 1 do
      let aw = wins.(i).(j) and tie = ties.(i).(j) in
      let frac, lo, hi = Stoch.Sketch.proportion_ci ~count:aw ~total:n in
      mc_dominance :=
        {
          dom_a = fst policy_arr.(i);
          dom_b = fst policy_arr.(j);
          dom_a_wins = aw;
          dom_b_wins = n - aw - tie;
          dom_ties = tie;
          dom_a_fraction = frac;
          dom_ci_low = lo;
          dom_ci_high = hi;
        }
        :: !mc_dominance
    done
  done;
  {
    mc_model = model_name model;
    mc_seed = seed;
    mc_n_batteries = n_batteries;
    mc_samples_requested = samples;
    mc_samples = n;
    mc_tripped = !tripped;
    mc_policies;
    mc_dominance = !mc_dominance;
  }
