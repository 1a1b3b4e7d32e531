(* Frozen answers of the exact search, the Horizon planner and
   [Optimal.plan], recorded by gen_answers.exe into search_answers.txt
   and checked by the search suites on results they already compute.
   One line per case:

     <case id> | <field>=<value> <field>=<value> ...

   Blank lines and lines starting with '#' are comments.  The rendering
   below is shared by the generator and the checks, so a mismatch is
   always a changed answer or a changed amount of work, never a changed
   format. *)

let bounds_tag on = if on then "bounds-on" else "bounds-off"

(* The four pruning regimes of doc/PERFORMANCE.md's bound suite, shared
   by the search suites: generated 40-60 job loads past the Table 5
   sizes, each on its own cells and a fixed seed, as (label, battery,
   bank size, load). *)
let regimes =
  let regime label disc n jobs seed currents idle =
    ( label,
      disc,
      n,
      Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01
        (Loads.Random_load.intermitted ~seed ~jobs ~currents ~idle_duration:idle
           ()) )
  in
  let b1 = Dkibam.Discretization.paper_b1
  and b2 = Dkibam.Discretization.paper_b2 in
  [
    regime "marginal" b1 3 40 2L [| 0.25; 0.5 |] 1.0;
    regime "overdrive" b2 2 60 1L [| 0.5 |] 0.5;
    regime "mixed" b2 2 40 1L [| 0.25; 0.5; 1.0 |] 1.0;
    regime "overload" b1 3 40 1L [| 0.5; 2.0 |] 1.0;
  ]

(* The bound mode a search runs in when [~bounds] is not passed: the
   same environment switch [Sched.Optimal] reads. *)
let default_bounds () =
  match Sys.getenv_opt "BATSCHED_NO_BOUNDS" with
  | None | Some "" -> true
  | Some _ -> false

let ints l = String.concat "," (List.map string_of_int l)

let status_tag : Sched.Optimal.status -> string = function
  | Optimal -> "optimal"
  | Budget_exhausted { fallback = Search_prefix; _ } -> "prefix"
  | Budget_exhausted { fallback = Policy_floor; _ } -> "floor"

let answer_fields (r : Sched.Optimal.result) =
  [
    ("life", string_of_int r.lifetime_steps);
    ("stranded", string_of_int r.stranded_units);
    ("decisions", string_of_int (Array.length r.schedule));
    ( "schedule",
      Digest.to_hex (Digest.string (ints (Array.to_list r.schedule))) );
    ("status", status_tag r.status);
  ]

let work_fields (r : Sched.Optimal.result) =
  [
    ("positions", string_of_int r.stats.positions_explored);
    ("segments", string_of_int r.stats.segments_run);
    ("pruned", string_of_int r.stats.pruned);
    ("cuts", string_of_int r.stats.bound_cuts);
  ]

let search_fields r = answer_fields r @ work_fields r

let run_fields ~lifetime decisions =
  [ ("life", string_of_int lifetime); ("choices", ints decisions) ]

let plan_fields : Sched.Optimal.plan option -> _ = function
  | Some p ->
      [
        ("choice", string_of_int p.plan_choice);
        ("value", string_of_int p.plan_value);
      ]
  | None -> [ ("tripped", "true") ]

let render id fields =
  id ^ " | " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

(* [split c s] = the parts of [s] before and after its first [c]. *)
let split c s =
  match String.index_opt s c with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> failwith (Printf.sprintf "search_answers.txt: no %C in %S" c s)

let table =
  lazy
    (let t = Hashtbl.create 256 in
     String.split_on_char '\n' Answers_data.text
     |> List.iter (fun line ->
            let line = String.trim line in
            if line <> "" && line.[0] <> '#' then
              let id, rest = split '|' line in
              String.split_on_char ' ' rest
              |> List.filter (( <> ) "")
              |> List.map (split '=')
              |> Hashtbl.replace t (String.trim id));
     t)

let check id fields =
  match Hashtbl.find_opt (Lazy.force table) id with
  | None -> Alcotest.failf "no frozen answer for %S in search_answers.txt" id
  | Some frozen ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k frozen with
          | Some v' when v' = v -> ()
          | Some v' -> Alcotest.failf "%s: %s = %s, frozen answer %s" id k v v'
          | None -> Alcotest.failf "%s: no frozen field %s" id k)
        fields

(* [work] adds the four work counters; pass it only where the case id
   pins the bound mode the search ran in. *)
let check_search ?(work = false) id r =
  check id (if work then search_fields r else answer_fields r)

let check_run id ~lifetime decisions = check id (run_fields ~lifetime decisions)
let check_plan id p = check id (plan_fields p)
