(* Paper reproduction renderer.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (sections 5-6) side by side with the published
   numbers, and runs the ablations DESIGN.md calls out.  Speed is not
   measured here: perfbench (perfbench/README.md) is the one benchmark.

   Pass a subset of artifact names to restrict the run, e.g.
   `dune exec bench/main.exe -- table5 figure6`.  Known names:
   tables12, table3, table4, table5, figure1, figure5, figure6,
   ablation-capacity, ablation-complexity, ablation-models,
   ablation-lookahead, ablation-granularity, multi-battery,
   random-ensemble, cross-validation.  Artifacts print in request
   order; an unknown name prints the known list and exits 1. *)

let section ppf title = Format.fprintf ppf "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Figure 1: the KiBaM two-well schematic, in ASCII                    *)
(* ------------------------------------------------------------------ *)

let figure1 ppf =
  section ppf "Figure 1: Kinetic Battery Model (schematic)";
  Format.fprintf ppf
    "    bound charge          available charge@.\
    \   +-----------+   k    +-----------+@.\
    \   |           |  ===>  |           |@.\
    \   |  y2       | valve  |  y1       |----> i(t)@.\
    \   |  (1 - c)  |        |  (c)      |@.\
    \   +-----------+        +-----------+@.\
    \       h2 = y2/(1-c)        h1 = y1/c@.\
     @.\
     dy1/dt = -i(t) + k (h2 - h1)      dy2/dt = -k (h2 - h1)@.\
     battery empty when y1 = 0  (eq. 3: gamma = (1 - c) delta)@."

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: model inventory                                     *)
(* ------------------------------------------------------------------ *)

let tables12 ppf =
  section ppf "Tables 1-2: TA-KiBaM variables and channels (model inventory)";
  Format.fprintf ppf
    "variables: n_gamma[id] (total charge, init N), m_delta[id] (height@.\
     difference, init 0), bat_empty[id], j (epoch index), empty_count,@.\
     load_time[] / cur_times[] / cur[] (the load encoding, cf. loadgen),@.\
     recov_time[] (precomputed from eq. 6).@.\
     channels: new_job (load, total_charge -> scheduler), go_on[id]@.\
     (scheduler -> total_charge), go_off (load -> total_charge),@.\
     use_charge[id] (total_charge -> height_difference), emptied@.\
     (total_charge -> max_finder), all_empty (broadcast).@."

(* ------------------------------------------------------------------ *)
(* Figure 5: the network itself, as Graphviz                           *)
(* ------------------------------------------------------------------ *)

let figure5 ppf =
  section ppf "Figure 5: the TA-KiBaM network (Graphviz)";
  let disc = Dkibam.Discretization.paper_b1 in
  let arrays = Batsched.Experiments.arrays_of ~horizon:8.0 Loads.Testloads.ILs_alt in
  let model = Takibam.Model.build ~n_batteries:2 disc arrays in
  Format.fprintf ppf "%s@." (Takibam.Model.dot model)

(* ------------------------------------------------------------------ *)
(* Reproduced evaluation artifacts                                     *)
(* ------------------------------------------------------------------ *)

let table3 ppf =
  section ppf "Table 3 (paper section 5)";
  Batsched.Report.table3 ppf (Batsched.Experiments.table3 ())

let table4 ppf =
  section ppf "Table 4 (paper section 5)";
  Batsched.Report.table4 ppf (Batsched.Experiments.table4 ())

let table5 ppf =
  section ppf "Table 5 (paper section 6)";
  Batsched.Report.table5 ppf (Batsched.Experiments.table5 ())

let figure6 ppf =
  section ppf "Figure 6 (paper section 6): ILs alt charge evolution + schedules";
  Batsched.Report.figure6 ppf ~label:"best-of-two"
    (Batsched.Experiments.figure6 `Best_of_two);
  Format.fprintf ppf "@.";
  Batsched.Report.figure6 ppf ~label:"optimal"
    (Batsched.Experiments.figure6 `Optimal)

let ablation_capacity ppf =
  section ppf "Ablation A1: stranded charge vs capacity (paper section 6 remark)";
  Batsched.Report.capacity_sweep ppf
    (Batsched.Experiments.capacity_sweep ~factors:[ 1.0; 2.0; 3.0; 5.0; 10.0 ] ())

let ablation_complexity ppf =
  section ppf "Ablation A2: optimal-search complexity (paper section 4.4)";
  Batsched.Report.complexity ppf (Batsched.Experiments.complexity_probe ())

let ablation_models ppf =
  section ppf "Ablation S9: KiBaM vs Rakhmatov-Vrudhula diffusion model";
  Batsched.Report.model_comparison ppf (Batsched.Experiments.model_comparison ())

let ablation_lookahead ppf =
  section ppf "Ablation X2: receding-horizon lookahead between best-of and optimal";
  let load = Loads.Testloads.ILs_r1 in
  Batsched.Report.lookahead_sweep ppf ~load
    (Batsched.Experiments.lookahead_sweep ~load ~ks:[ 1; 2; 3; 4; 6; 8 ] ())

let ablation_granularity ppf =
  section ppf "Ablation A3: discretization granularity (paper sections 2.3, 4.4)";
  Batsched.Report.granularity_sweep ppf (Batsched.Experiments.granularity_sweep ())

let multi_battery ppf =
  section ppf "Beyond the paper: packs of 2-4 batteries (ILs alt)";
  let load = Loads.Testloads.ILs_alt in
  Batsched.Report.multi_battery ppf ~load
    (Batsched.Experiments.multi_battery ~load ())

let random_ensemble ppf =
  section ppf
    "Random-load ensemble (section 7 outlook: what Cora could not analyze)";
  let e =
    Sched.Ensemble.run ~n_loads:30 ~jobs_per_load:40
      Dkibam.Discretization.paper_b1 ()
  in
  Batsched.Report.ensemble ppf e

let cross_validation ppf =
  section ppf "Engine cross-validation (DESIGN.md Cora substitution)";
  Batsched.Report.cross_validation ppf (Batsched.Experiments.cross_validate ())

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("tables12", tables12);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("figure1", figure1);
    ("figure5", figure5);
    ("figure6", figure6);
    ("ablation-capacity", ablation_capacity);
    ("ablation-complexity", ablation_complexity);
    ("ablation-models", ablation_models);
    ("ablation-lookahead", ablation_lookahead);
    ("ablation-granularity", ablation_granularity);
    ("multi-battery", multi_battery);
    ("random-ensemble", random_ensemble);
    ("cross-validation", cross_validation);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst artifacts
    | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name artifacts) then begin
        Format.eprintf "unknown artifact %S; known: %s@." name
          (String.concat ", " (List.map fst artifacts));
        exit 1
      end)
    requested;
  let ppf = Format.std_formatter in
  List.iter (fun name -> (List.assoc name artifacts) ppf) requested;
  Format.pp_print_flush ppf ()
