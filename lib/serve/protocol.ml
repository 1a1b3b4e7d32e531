(* Wire protocol of the scheduling daemon.  Everything here is total:
   a frame either parses into a validated [request] or comes back as a
   structured Guard.Error — the server never sees an exception from
   this module, which is what the 10k-frame fuzz suite asserts. *)

module Json = Obs.Json

type battery = B1 | B2

let battery_label = function B1 -> "b1" | B2 -> "b2"

type load_ref = Named of Loads.Testloads.name | Spec of Loads.Epoch.t * string

type target = { load : load_ref; battery : battery; n_batteries : int }

type mc_params = {
  mc_seed : int;
  mc_samples : int;
  mc_slots : int;
  mc_deadline_min : float option;
}

type ens_params = {
  ens_seed : int;
  ens_loads : int;
  ens_jobs_per_load : int;
  ens_include_optimal : bool;
}

type query =
  | Schedule of target
  | Compare of target
  | Montecarlo of target * mc_params
  | Ensemble of target * ens_params
  | Stats

type request = {
  id : Json.t;
  query : query;
  deadline_ms : int option;
  max_segments : int option;
}

(* ---------------------------------------------------------------- *)
(* Field accessors with structured errors                           *)
(* ---------------------------------------------------------------- *)

let err ?field ?value ?accepted what =
  Guard.Error.make ~subsystem:"serve.protocol" ?field ?value ?accepted what

let ( let* ) = Result.bind

let field_opt name json = Json.member name json

let as_int ~field = function
  | Json.Int n -> Ok n
  | j -> Error (err ~field ~value:(Json.to_string j) ~accepted:"an integer" "bad field type")

let as_float ~field = function
  | Json.Int n -> Ok (float_of_int n)
  | Json.Float f -> Ok f
  | j -> Error (err ~field ~value:(Json.to_string j) ~accepted:"a number" "bad field type")

let as_string ~field = function
  | Json.String s -> Ok s
  | j -> Error (err ~field ~value:(Json.to_string j) ~accepted:"a string" "bad field type")

let as_bool ~field = function
  | Json.Bool b -> Ok b
  | j -> Error (err ~field ~value:(Json.to_string j) ~accepted:"a boolean" "bad field type")

let opt_field json name conv =
  match field_opt name json with
  | None -> Ok None
  | Some j ->
      let* v = conv ~field:name j in
      Ok (Some v)

let default_field json name conv default =
  let* v = opt_field json name conv in
  Ok (Option.value ~default v)

(* Range guards: a daemon serving untrusted clients must bound every
   knob a request can turn into work or memory. *)
let in_range ~field ~lo ~hi n =
  if n >= lo && n <= hi then Ok n
  else
    Error
      (err ~field ~value:(string_of_int n)
         ~accepted:(Printf.sprintf "an integer in [%d, %d]" lo hi)
         "field out of range")

(* ---------------------------------------------------------------- *)
(* Request parsing                                                  *)
(* ---------------------------------------------------------------- *)

let parse_load json =
  match (field_opt "load" json, field_opt "spec" json) with
  | Some _, Some _ ->
      Error
        (err ~field:"load/spec" ~accepted:"exactly one of the two"
           "both a load name and a spec were given")
  | Some j, None -> (
      let* s = as_string ~field:"load" j in
      match Loads.Testloads.of_string s with
      | Some n -> Ok (Named n)
      | None ->
          Error
            (err ~field:"load" ~value:s
               ~accepted:
                 (String.concat ", "
                    (List.map Loads.Testloads.to_string
                       Loads.Testloads.all_names))
               "unknown test load"))
  | None, Some j -> (
      let* s = as_string ~field:"spec" j in
      match Loads.Spec.parse_result s with
      | Error e -> Error e
      | Ok epochs -> Ok (Spec (epochs, s)))
  | None, None ->
      Error
        (err ~field:"load" ~accepted:"a test-load name or a \"spec\" field"
           "no load given")

let parse_battery json =
  let* s = default_field json "battery" as_string "b1" in
  match String.lowercase_ascii s with
  | "b1" -> Ok B1
  | "b2" -> Ok B2
  | _ -> Error (err ~field:"battery" ~value:s ~accepted:"b1 | b2" "unknown battery type")

let parse_target json =
  let* load = parse_load json in
  let* battery = parse_battery json in
  let* n = default_field json "n" as_int 2 in
  let* n_batteries = in_range ~field:"n" ~lo:1 ~hi:6 n in
  Ok { load; battery; n_batteries }

let parse_mc json =
  let* seed = default_field json "seed" as_int 42 in
  let* samples = default_field json "samples" as_int 1_000 in
  let* mc_samples = in_range ~field:"samples" ~lo:1 ~hi:200_000 samples in
  let* slots = default_field json "slots" as_int 40 in
  let* mc_slots = in_range ~field:"slots" ~lo:1 ~hi:10_000 slots in
  let* mc_deadline_min = opt_field json "deadline_min" as_float in
  match mc_deadline_min with
  | Some d when d <= 0.0 ->
      Error
        (err ~field:"deadline_min" ~value:(string_of_float d)
           ~accepted:"a positive number of minutes" "bad mission deadline")
  | _ -> Ok { mc_seed = seed; mc_samples; mc_slots; mc_deadline_min }

let parse_ens json =
  let* seed = default_field json "seed" as_int 42 in
  let* loads = default_field json "loads" as_int 10 in
  let* ens_loads = in_range ~field:"loads" ~lo:1 ~hi:500 loads in
  let* jpl = default_field json "jobs_per_load" as_int 60 in
  let* ens_jobs_per_load = in_range ~field:"jobs_per_load" ~lo:1 ~hi:2_000 jpl in
  let* ens_include_optimal = default_field json "include_optimal" as_bool true in
  Ok { ens_seed = seed; ens_loads; ens_jobs_per_load; ens_include_optimal }

let request_id json =
  match json with
  | Json.Obj _ -> Option.value ~default:Json.Null (field_opt "id" json)
  | _ -> Json.Null

let parse_request line =
  match Json.of_string line with
  | Error msg ->
      Error (Json.Null, err ~field:"frame" ~value:msg "malformed JSON frame")
  | Ok json -> (
      let id = request_id json in
      let attach r = Result.map_error (fun e -> (id, e)) r in
      match json with
      | Json.Obj _ ->
          attach
            (let* op =
               match field_opt "op" json with
               | None -> Error (err ~field:"op" ~accepted:"schedule | compare | montecarlo | ensemble | stats" "missing op")
               | Some j -> as_string ~field:"op" j
             in
             let* query =
               match String.lowercase_ascii op with
               | "schedule" ->
                   let* t = parse_target json in
                   Ok (Schedule t)
               | "compare" ->
                   let* t = parse_target json in
                   Ok (Compare t)
               | "montecarlo" ->
                   (* montecarlo needs no load: the model generates them *)
                   let* battery = parse_battery json in
                   let* n = default_field json "n" as_int 2 in
                   let* n_batteries = in_range ~field:"n" ~lo:1 ~hi:6 n in
                   let* p = parse_mc json in
                   Ok
                     (Montecarlo
                        ( { load = Named Loads.Testloads.ILs_alt; battery; n_batteries },
                          p ))
               | "ensemble" ->
                   let* battery = parse_battery json in
                   let* n = default_field json "n" as_int 2 in
                   let* n_batteries = in_range ~field:"n" ~lo:1 ~hi:6 n in
                   let* p = parse_ens json in
                   Ok
                     (Ensemble
                        ( { load = Named Loads.Testloads.ILs_alt; battery; n_batteries },
                          p ))
               | "stats" -> Ok Stats
               | s ->
                   Error
                     (err ~field:"op" ~value:s
                        ~accepted:"schedule | compare | montecarlo | ensemble | stats"
                        "unknown op")
             in
             let* deadline_ms = opt_field json "deadline_ms" as_int in
             let* deadline_ms =
               match deadline_ms with
               | Some d when d < 1 ->
                   Error
                     (err ~field:"deadline_ms" ~value:(string_of_int d)
                        ~accepted:"an integer >= 1" "bad deadline")
               | d -> Ok d
             in
             let* max_segments = opt_field json "max_segments" as_int in
             let* max_segments =
               match max_segments with
               | Some m when m < 1 ->
                   Error
                     (err ~field:"max_segments" ~value:(string_of_int m)
                        ~accepted:"an integer >= 1" "bad work budget")
               | m -> Ok m
             in
             Ok { id; query; deadline_ms; max_segments })
      | j ->
          Error
            ( Json.Null,
              err ~field:"frame" ~value:(Json.to_string j)
                ~accepted:"a JSON object" "request is not an object" ))

(* ---------------------------------------------------------------- *)
(* Cache keys                                                       *)
(* ---------------------------------------------------------------- *)

(* A spec load is keyed on its parsed epochs, marshalled without
   sharing: the encoding is exact (floats bit for bit) and depends only
   on the epochs' structure, so two specs share a key exactly when they
   parse to the same load. *)
let load_canon = function
  | Named n -> "load:" ^ Loads.Testloads.to_string n
  | Spec (epochs, _) ->
      "spec:" ^ Marshal.to_string epochs [ Marshal.No_sharing ]

let target_canon t =
  Printf.sprintf "%s|%s|%d" (load_canon t.load) (battery_label t.battery)
    t.n_batteries

let cache_key r =
  let canon =
    match r.query with
    | Schedule t -> Some (Printf.sprintf "schedule|%s" (target_canon t))
    | Compare t -> Some (Printf.sprintf "compare|%s" (target_canon t))
    | Montecarlo (t, p) ->
        Some
          (Printf.sprintf "montecarlo|%s|%d|%d|%d|%s"
             (Printf.sprintf "%s|%d" (battery_label t.battery) t.n_batteries)
             p.mc_seed p.mc_samples p.mc_slots
             (match p.mc_deadline_min with
             | None -> "-"
             | Some d -> Printf.sprintf "%.6f" d))
    | Ensemble (t, p) ->
        Some
          (Printf.sprintf "ensemble|%s|%d|%d|%d|%b"
             (Printf.sprintf "%s|%d" (battery_label t.battery) t.n_batteries)
             p.ens_seed p.ens_loads p.ens_jobs_per_load p.ens_include_optimal)
    | Stats -> None
  in
  Option.map (fun c -> Digest.to_hex (Digest.string c)) canon

let max_search_positions = 500_000

let budget_of_request r =
  let max_positions =
    match r.query with
    | Schedule _ | Compare _ -> Some max_search_positions
    | Montecarlo _ | Ensemble _ | Stats -> None
  in
  match (r.deadline_ms, r.max_segments, max_positions) with
  | None, None, None -> None
  | d, s, p ->
      Some
        (Guard.Budget.create
           ?deadline_s:(Option.map (fun ms -> float_of_int ms /. 1000.0) d)
           ?max_segments:s ?max_positions:p ())

(* ---------------------------------------------------------------- *)
(* Response rendering                                               *)
(* ---------------------------------------------------------------- *)

(* Responses are assembled by string concatenation around the result
   payload (itself a serialized JSON object) so that a cache hit
   replays the cold response byte for byte. *)
let ok_response ~id ?degraded result_json =
  let degraded_fields =
    match degraded with
    | None -> "\"degraded\":false"
    | Some reason ->
        Printf.sprintf "\"degraded\":true,\"degraded_reason\":%s"
          (Json.to_string (Json.String reason))
  in
  Printf.sprintf "{\"id\":%s,\"ok\":true,%s,\"result\":%s}" (Json.to_string id)
    degraded_fields result_json

let error_json (e : Guard.Error.t) =
  let opt name = function None -> [] | Some v -> [ (name, Json.String v) ] in
  Json.Obj
    ([
       ("subsystem", Json.String e.Guard.Error.subsystem);
       ("what", Json.String e.Guard.Error.what);
     ]
    @ opt "input" e.Guard.Error.input
    @ opt "field" e.Guard.Error.field
    @ opt "value" e.Guard.Error.value
    @ opt "accepted" e.Guard.Error.accepted)

let error_response ~id ?retry_after_ms e =
  let retry =
    match retry_after_ms with
    | None -> ""
    | Some ms -> Printf.sprintf ",\"retry_after_ms\":%d" ms
  in
  Printf.sprintf "{\"id\":%s,\"ok\":false,\"error\":%s%s}" (Json.to_string id)
    (Json.to_string (error_json e))
    retry

let parse_response line =
  match Json.of_string line with
  | Ok j -> Ok j
  | Error msg -> Error (err ~field:"response" ~value:msg "malformed response frame")
