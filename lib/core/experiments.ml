let time_step = 0.01
let charge_unit = 0.01

let arrays_of ?horizon name =
  Loads.Arrays.make ~time_step ~charge_unit (Loads.Testloads.load ?horizon name)

type validation_row = {
  load : Loads.Testloads.name;
  analytic : float;
  discrete : float;
  paper_analytic : float;
  paper_discrete : float;
  comparable : bool;
}

let validation params paper_rows =
  let disc = Dkibam.Discretization.make ~time_step ~charge_unit params in
  List.map
    (fun (p : Paper_data.validation_row) ->
      let load = Loads.Testloads.load p.load in
      let analytic = Kibam.Lifetime.lifetime_exn params (Loads.Epoch.to_profile load) in
      let discrete =
        Dkibam.Engine.lifetime_exn disc (Loads.Arrays.make ~time_step ~charge_unit load)
      in
      {
        load = p.load;
        analytic;
        discrete;
        paper_analytic = p.kibam;
        paper_discrete = p.ta_kibam;
        comparable = Paper_data.comparable p.load;
      })
    paper_rows

let table3 () = validation Kibam.Params.b1 Paper_data.table3
let table4 () = validation Kibam.Params.b2 Paper_data.table4

type schedule_row = {
  load : Loads.Testloads.name;
  sequential : float;
  round_robin : float;
  best_of_two : float;
  optimal : float;
  paper : Paper_data.schedule_row;
  comparable : bool;
}

let table5 ?switch_delay () =
  let disc = Dkibam.Discretization.paper_b1 in
  List.map
    (fun (p : Paper_data.schedule_row) ->
      let arrays = arrays_of p.load in
      let lt policy =
        Sched.Simulator.lifetime_exn ?switch_delay ~n_batteries:2 ~policy disc arrays
      in
      {
        load = p.load;
        sequential = lt Sched.Policy.Sequential;
        round_robin = lt Sched.Policy.Round_robin;
        best_of_two = lt Sched.Policy.Best_of;
        optimal = Sched.Optimal.lifetime ?switch_delay ~n_batteries:2 disc arrays;
        paper = p;
        comparable = Paper_data.comparable p.load;
      })
    Paper_data.table5

type fig6_point = {
  time : float;
  total : float array;
  available : float array;
  serving : int option;
}

type fig6 = {
  points : fig6_point list;
  intervals : (float * float * int) list;
  lifetime : float;
  stranded_fraction : float;
}

let figure6 which =
  let disc = Dkibam.Discretization.paper_b1 in
  let arrays = arrays_of Loads.Testloads.ILs_alt in
  let policy =
    match which with
    | `Best_of_two -> Sched.Policy.Best_of
    | `Optimal ->
        let r = Sched.Optimal.search ~n_batteries:2 disc arrays in
        Sched.Policy.Fixed r.schedule
  in
  let o =
    Sched.Simulator.simulate ~trace_every:10 ~n_batteries:2 ~policy disc arrays
  in
  let lifetime_steps =
    match o.lifetime_steps with
    | Some s -> s
    | None -> failwith "Experiments.figure6: batteries outlived the load"
  in
  let minutes s = Dkibam.Discretization.minutes_of_steps disc s in
  let points =
    List.filter_map
      (fun (s : Sched.Simulator.sample) ->
        if s.s_step > lifetime_steps then None
        else
          Some
            {
              time = minutes s.s_step;
              total = Array.map (Dkibam.Battery.total_charge disc) s.s_batteries;
              available =
                Array.map (Dkibam.Battery.available_charge disc) s.s_batteries;
              serving = s.s_serving;
            })
      o.samples
  in
  let intervals =
    List.map (fun (a, b, bat) -> (minutes a, minutes b, bat)) o.serving_intervals
  in
  let stranded =
    Array.fold_left
      (fun acc b -> acc +. Dkibam.Battery.total_charge disc b)
      0.0 o.final
  in
  let initial = 2.0 *. (disc.Dkibam.Discretization.params : Kibam.Params.t).capacity in
  {
    points;
    intervals;
    lifetime = minutes lifetime_steps;
    stranded_fraction = stranded /. initial;
  }

let capacity_sweep ?(policy = Sched.Policy.Best_of)
    ?(load = Loads.Testloads.ILs_alt) ~factors () =
  List.map
    (fun factor ->
      let params = Kibam.Params.scale_capacity Kibam.Params.b1 factor in
      let disc = Dkibam.Discretization.make ~time_step ~charge_unit params in
      (* larger batteries live longer: stretch the horizon with the
         capacity so the load always outlives them *)
      let horizon = 400.0 *. Float.max 1.0 factor in
      let arrays =
        Loads.Arrays.make ~time_step ~charge_unit
          (Loads.Testloads.load ~horizon load)
      in
      let o = Sched.Simulator.simulate ~n_batteries:2 ~policy disc arrays in
      match o.lifetime_steps with
      | None -> failwith "Experiments.capacity_sweep: horizon too short"
      | Some s ->
          let stranded =
            Array.fold_left
              (fun acc b -> acc +. Dkibam.Battery.total_charge disc b)
              0.0 o.final
          in
          ( factor,
            Dkibam.Discretization.minutes_of_steps disc s,
            stranded /. (2.0 *. params.capacity) ))
    factors

let complexity_probe ?(loads = Loads.Testloads.all_names) () =
  let disc = Dkibam.Discretization.paper_b1 in
  List.map
    (fun name ->
      let arrays = arrays_of name in
      let t0 = Sys.time () in
      let r = Sched.Optimal.search ~n_batteries:2 disc arrays in
      let dt = Sys.time () -. t0 in
      (name, Array.length r.schedule, r.stats.positions_explored, dt))
    loads

let model_comparison ?(loads = Loads.Testloads.all_names) () =
  List.map
    (fun name ->
      let profile = Loads.Epoch.to_profile (Loads.Testloads.load name) in
      let kibam = Kibam.Lifetime.lifetime_exn Kibam.Params.b1 profile in
      let diffusion =
        match Diffusion.Rv.lifetime Diffusion.Rv.itsy_b1 profile with
        | Some t -> t
        | None -> Float.nan
      in
      (name, kibam, diffusion))
    loads

type cross_validation = {
  toy_description : string;
  fast_lifetime_steps : int;
  fast_stranded : int;
  ta_lifetime_steps : int;
  ta_stranded : int;
  agrees : bool;
}

let cross_validate () =
  let params = Kibam.Params.make ~c:0.166 ~k':0.122 ~capacity:20.0 in
  let disc = Dkibam.Discretization.make ~time_step:1.0 ~charge_unit:1.0 params in
  let load =
    Loads.Epoch.cycle_until ~horizon:400.0
      (Loads.Epoch.append
         (Loads.Epoch.job ~current:0.5 ~duration:8.0)
         (Loads.Epoch.idle 4.0))
  in
  let arrays = Loads.Arrays.make ~time_step:1.0 ~charge_unit:1.0 load in
  let fast =
    Sched.Optimal.search ~switch_delay:0 ~objective:Sched.Optimal.Min_stranded
      ~allow_final_draw_skip:true ~n_batteries:2 disc arrays
  in
  let ta = Takibam.Optimal.search (Takibam.Model.build ~n_batteries:2 disc arrays) in
  {
    toy_description =
      "2 batteries of 20 charge units (c = 0.166, k' = 0.122), 8-step jobs at \
       1 unit / 2 steps with 4-step idles";
    fast_lifetime_steps = fast.lifetime_steps;
    fast_stranded = fast.stranded_units;
    ta_lifetime_steps = ta.lifetime_steps;
    ta_stranded = ta.stranded_units;
    agrees =
      fast.lifetime_steps = ta.lifetime_steps
      && fast.stranded_units = ta.stranded_units;
  }

let lookahead_sweep ?(load = Loads.Testloads.ILs_r1) ~ks () =
  let disc = Dkibam.Discretization.paper_b1 in
  let arrays = arrays_of load in
  let best_of =
    Sched.Simulator.lifetime_exn ~n_batteries:2 ~policy:Sched.Policy.Best_of disc
      arrays
  in
  let rows =
    List.map
      (fun k ->
        let policy = Sched.Horizon.policy ~k () in
        (Some k, Sched.Simulator.lifetime_exn ~n_batteries:2 ~policy disc arrays))
      ks
  in
  ((None, best_of) :: rows)
  @ [ (None, Sched.Optimal.lifetime ~n_batteries:2 disc arrays) ]

type granularity_row = {
  g_time_step : float;
  g_charge_unit : float;
  g_lifetime : float;
  g_error_vs_analytic : float;
  g_positions : int;
}

let granularity_sweep
    ?(grids =
      [ (0.0025, 0.01); (0.005, 0.01); (0.01, 0.01); (0.025, 0.025); (0.05, 0.05); (0.1, 0.1) ])
    () =
  let load = Loads.Testloads.load Loads.Testloads.ILs_alt in
  let analytic =
    Kibam.Lifetime.lifetime_exn Kibam.Params.b1 (Loads.Epoch.to_profile load)
  in
  List.map
    (fun (g_time_step, g_charge_unit) ->
      let disc =
        Dkibam.Discretization.make ~time_step:g_time_step
          ~charge_unit:g_charge_unit Kibam.Params.b1
      in
      let arrays =
        Loads.Arrays.make ~time_step:g_time_step ~charge_unit:g_charge_unit load
      in
      let g_lifetime = Dkibam.Engine.lifetime_exn disc arrays in
      let r = Sched.Optimal.search ~n_batteries:2 disc arrays in
      {
        g_time_step;
        g_charge_unit;
        g_lifetime;
        g_error_vs_analytic = Float.abs (g_lifetime -. analytic) /. analytic;
        g_positions = r.stats.positions_explored;
      })
    grids

let multi_battery ?(ns = [ 2; 3; 4 ]) ?(load = Loads.Testloads.ILs_alt) () =
  let disc = Dkibam.Discretization.paper_b1 in
  (* bigger packs live longer: stretch the horizon with the pack size *)
  let max_n = List.fold_left max 2 ns in
  let arrays =
    Loads.Arrays.make ~time_step ~charge_unit
      (Loads.Testloads.load ~horizon:(200.0 *. float_of_int max_n) load)
  in
  List.map
    (fun n ->
      (* the exhaustive search is exponential in the pack size (paper
         section 4.4): beyond 3 batteries substitute the receding-horizon
         planner, which tracks the optimum closely on the smaller packs *)
      if n <= 3 then
        (n, Sched.Analysis.compare_policies ~n_batteries:n disc arrays)
      else begin
        let policies =
          Sched.Analysis.default_policies
          @ [ (Sched.Horizon.name ~k:4 (), Sched.Horizon.policy ~k:4 ()) ]
        in
        ( n,
          Sched.Analysis.compare_policies ~policies ~include_optimal:false
            ~n_batteries:n disc arrays )
      end)
    ns
