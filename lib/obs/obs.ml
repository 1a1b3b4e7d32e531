(* Per-domain sinks of flat int arrays, indexed by interned metric id.
   The hot path is: one Atomic.get on the enabled flag, one DLS lookup,
   one array store.  The registry mutex is only ever taken when a
   metric name is first interned, when a domain enrols its sink, and at
   snapshot/reset time — never per event. *)

let enabled_flag = Atomic.make false
let tracing_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let tracing () = Atomic.get tracing_flag

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ------------------------------------------------------------------ *)
(* Registry: names to dense ids, one id space per metric kind          *)
(* ------------------------------------------------------------------ *)

type counter = int
type gauge = int
type histogram = int
type span = int

let registry_mutex = Mutex.create ()

type registry = {
  mutable names : string array;  (* id -> name *)
  mutable used : int;
  by_name : (string, int) Hashtbl.t;
}

let new_registry () =
  { names = Array.make 16 ""; used = 0; by_name = Hashtbl.create 16 }

let counters_reg = new_registry ()
let gauges_reg = new_registry ()
let hists_reg = new_registry ()
let spans_reg = new_registry ()

let intern reg name =
  Mutex.lock registry_mutex;
  let id =
    match Hashtbl.find_opt reg.by_name name with
    | Some id -> id
    | None ->
        let id = reg.used in
        if id = Array.length reg.names then begin
          let grown = Array.make (2 * id) "" in
          Array.blit reg.names 0 grown 0 id;
          reg.names <- grown
        end;
        reg.names.(id) <- name;
        reg.used <- id + 1;
        Hashtbl.replace reg.by_name name id;
        id
  in
  Mutex.unlock registry_mutex;
  id

let counter = intern counters_reg
let gauge = intern gauges_reg
let histogram = intern hists_reg
let span = intern spans_reg

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let n_buckets = 64 (* power-of-two histogram buckets, see mli *)

type event = { ev_span : span; ev_ts : int; ev_dur : int; ev_index : int }
(* [ev_index = min_int] means "no index tag". *)

type sink = {
  domain : int;
  mutable counts : int array;  (* by counter id *)
  mutable gauge_vals : int array;  (* by gauge id; min_int = unset *)
  mutable hist_vals : int array array;  (* by histogram id *)
  mutable span_calls : int array;  (* by span id *)
  mutable span_ns : int array;
  mutable events : event array;
  mutable n_events : int;
}

let sinks : sink list ref = ref []

let no_event = { ev_span = 0; ev_ts = 0; ev_dur = 0; ev_index = 0 }

let new_sink () =
  let s =
    {
      domain = (Domain.self () :> int);
      counts = Array.make 16 0;
      gauge_vals = Array.make 16 min_int;
      hist_vals = Array.make 16 [||];
      span_calls = Array.make 16 0;
      span_ns = Array.make 16 0;
      events = Array.make 0 no_event;
      n_events = 0;
    }
  in
  Mutex.lock registry_mutex;
  sinks := s :: !sinks;
  Mutex.unlock registry_mutex;
  s

let sink_key = Domain.DLS.new_key new_sink
let sink () = Domain.DLS.get sink_key

(* Grow-on-demand keeps sinks valid when metrics are interned after the
   sink was created (e.g. a module initialized late). *)
let ensure ~fill a id =
  if id < Array.length a then a
  else begin
    let grown = Array.make (max 16 (2 * (id + 1))) fill in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end

let add c n =
  if Atomic.get enabled_flag && n > 0 then begin
    let s = sink () in
    s.counts <- ensure ~fill:0 s.counts c;
    s.counts.(c) <- s.counts.(c) + n
  end

let incr c = add c 1

let gauge_max g v =
  if Atomic.get enabled_flag then begin
    let s = sink () in
    s.gauge_vals <- ensure ~fill:min_int s.gauge_vals g;
    if v > s.gauge_vals.(g) then s.gauge_vals.(g) <- v
  end

let bucket_of v =
  let rec go v k = if v = 0 then k else go (v lsr 1) (k + 1) in
  if v <= 0 then 0 else min (n_buckets - 1) (go v 0)

let observe h v =
  if Atomic.get enabled_flag then begin
    let s = sink () in
    s.hist_vals <- ensure ~fill:[||] s.hist_vals h;
    if Array.length s.hist_vals.(h) = 0 then
      s.hist_vals.(h) <- Array.make n_buckets 0;
    let b = bucket_of v in
    s.hist_vals.(h).(b) <- s.hist_vals.(h).(b) + 1
  end

let push_event s ev =
  if s.n_events = Array.length s.events then begin
    let grown = Array.make (max 256 (2 * s.n_events)) no_event in
    Array.blit s.events 0 grown 0 s.n_events;
    s.events <- grown
  end;
  s.events.(s.n_events) <- ev;
  s.n_events <- s.n_events + 1

let time ?(index = min_int) sp f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let s = sink () in
    let t0 = now_ns () in
    let finish () =
      let dur = max 0 (now_ns () - t0) in
      s.span_calls <- ensure ~fill:0 s.span_calls sp;
      s.span_ns <- ensure ~fill:0 s.span_ns sp;
      s.span_calls.(sp) <- s.span_calls.(sp) + 1;
      s.span_ns.(sp) <- s.span_ns.(sp) + dur;
      if Atomic.get tracing_flag then
        push_event s { ev_span = sp; ev_ts = t0; ev_dur = dur; ev_index = index }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

(* ------------------------------------------------------------------ *)
(* Switch and reset                                                    *)
(* ------------------------------------------------------------------ *)

let enable ?(trace = false) () =
  Atomic.set tracing_flag trace;
  Atomic.set enabled_flag true

let disable () =
  Atomic.set enabled_flag false;
  Atomic.set tracing_flag false

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun s ->
      Array.fill s.counts 0 (Array.length s.counts) 0;
      Array.fill s.gauge_vals 0 (Array.length s.gauge_vals) min_int;
      Array.iter (fun b -> Array.fill b 0 (Array.length b) 0) s.hist_vals;
      Array.fill s.span_calls 0 (Array.length s.span_calls) 0;
      Array.fill s.span_ns 0 (Array.length s.span_ns) 0;
      s.events <- Array.make 0 no_event;
      s.n_events <- 0)
    !sinks;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type span_stat = { calls : int; total_ns : int }

type snapshot = {
  counters : (string * int) list;
  per_domain : (string * (int * int) list) list;
  gauges : (string * int) list;
  histograms : (string * (int * int) list) list;
  spans : (string * span_stat) list;
}

let get_or_0 a i = if i < Array.length a then a.(i) else 0

let snapshot () =
  Mutex.lock registry_mutex;
  let sinks = !sinks in
  let names reg = Array.sub reg.names 0 reg.used in
  let c_names = names counters_reg
  and g_names = names gauges_reg
  and h_names = names hists_reg
  and s_names = names spans_reg in
  Mutex.unlock registry_mutex;
  (* Sinks are enrolled newest-first; fold in domain order instead so
     the per-domain listing is stable. *)
  let sinks = List.sort (fun a b -> compare a.domain b.domain) sinks in
  let counters = ref [] and per_domain = ref [] in
  Array.iteri
    (fun id name ->
      let total = ref 0 and per = ref [] in
      List.iter
        (fun s ->
          let v = get_or_0 s.counts id in
          total := !total + v;
          if v <> 0 then per := (s.domain, v) :: !per)
        sinks;
      if !total <> 0 then begin
        counters := (name, !total) :: !counters;
        per_domain := (name, List.rev !per) :: !per_domain
      end)
    c_names;
  let gauges = ref [] in
  Array.iteri
    (fun id name ->
      let v =
        List.fold_left
          (fun acc s -> max acc (get_or_0 s.gauge_vals id))
          min_int sinks
      in
      if v <> min_int then gauges := (name, v) :: !gauges)
    g_names;
  let histograms = ref [] in
  Array.iteri
    (fun id name ->
      let merged = Array.make n_buckets 0 in
      List.iter
        (fun s ->
          if id < Array.length s.hist_vals then
            Array.iteri
              (fun b v -> merged.(b) <- merged.(b) + v)
              s.hist_vals.(id))
        sinks;
      let buckets = ref [] in
      Array.iteri
        (fun b v ->
          if v <> 0 then begin
            let upper =
              if b = 0 then 0
              else if b = n_buckets - 1 then max_int
              else (1 lsl b) - 1
            in
            buckets := (upper, v) :: !buckets
          end)
        merged;
      if !buckets <> [] then histograms := (name, List.rev !buckets) :: !histograms)
    h_names;
  let spans = ref [] in
  Array.iteri
    (fun id name ->
      let calls = ref 0 and ns = ref 0 in
      List.iter
        (fun s ->
          calls := !calls + get_or_0 s.span_calls id;
          ns := !ns + get_or_0 s.span_ns id)
        sinks;
      if !calls <> 0 then
        spans := (name, { calls = !calls; total_ns = !ns }) :: !spans)
    s_names;
  let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    counters = by_name !counters;
    per_domain = by_name !per_domain;
    gauges = by_name !gauges;
    histograms = by_name !histograms;
    spans = by_name !spans;
  }

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then
    Format.fprintf ppf "%.2f s" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Format.fprintf ppf "%.2f ms" (float_of_int ns /. 1e6)
  else Format.fprintf ppf "%.1f us" (float_of_int ns /. 1e3)

let pp ppf snap =
  let rule title = Format.fprintf ppf "%s@." title in
  if snap.counters <> [] then begin
    rule "counters:";
    List.iter
      (fun (name, v) ->
        Format.fprintf ppf "  %-36s %12d" name v;
        (match List.assoc_opt name snap.per_domain with
        | Some ((_ :: _ :: _) as per) ->
            Format.fprintf ppf "   [%s]"
              (String.concat "; "
                 (List.map
                    (fun (d, v) -> Printf.sprintf "d%d: %d" d v)
                    per))
        | _ -> ());
        Format.fprintf ppf "@.")
      snap.counters
  end;
  if snap.gauges <> [] then begin
    rule "gauges (high water):";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %12d@." name v)
      snap.gauges
  end;
  if snap.histograms <> [] then begin
    rule "histograms (<= bound: count):";
    List.iter
      (fun (name, buckets) ->
        Format.fprintf ppf "  %-36s %s@." name
          (String.concat ", "
             (List.map
                (fun (upper, v) ->
                  if upper = max_int then Printf.sprintf "inf: %d" v
                  else Printf.sprintf "%d: %d" upper v)
                buckets)))
      snap.histograms
  end;
  if snap.spans <> [] then begin
    rule "spans:";
    List.iter
      (fun (name, { calls; total_ns }) ->
        Format.fprintf ppf "  %-36s %6d calls  total %a  mean %a@." name
          calls pp_ns total_ns pp_ns
          (total_ns / max 1 calls))
      snap.spans
  end

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let to_string v =
    let buf = Buffer.create 1024 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f ->
          (* round-trippable and valid JSON (no nan/inf, no bare dot) *)
          if Float.is_integer f && Float.abs f < 1e15 then
            Buffer.add_string buf (Printf.sprintf "%.1f" f)
          else Buffer.add_string buf (Printf.sprintf "%.17g" f)
      | String s ->
          Buffer.add_char buf '"';
          escape buf s;
          Buffer.add_char buf '"'
      | List l ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i v ->
              if i > 0 then Buffer.add_char buf ',';
              go v)
            l;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              escape buf k;
              Buffer.add_string buf "\":";
              go v)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Parse_fail of int * string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_fail (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' ->
                Buffer.add_char buf '"';
                advance ();
                go ()
            | Some '\\' ->
                Buffer.add_char buf '\\';
                advance ();
                go ()
            | Some '/' ->
                Buffer.add_char buf '/';
                advance ();
                go ()
            | Some 'n' ->
                Buffer.add_char buf '\n';
                advance ();
                go ()
            | Some 'r' ->
                Buffer.add_char buf '\r';
                advance ();
                go ()
            | Some 't' ->
                Buffer.add_char buf '\t';
                advance ();
                go ()
            | Some 'b' ->
                Buffer.add_char buf '\b';
                advance ();
                go ()
            | Some 'f' ->
                Buffer.add_char buf '\012';
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail "bad \\u escape"
                in
                pos := !pos + 4;
                (* encode the code point as UTF-8; enough for the
                   control characters the printer emits *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end;
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while match peek () with Some c when is_num_char c -> true | _ -> false do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      let is_float =
        String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
      in
      if is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [ parse_value () ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items := parse_value () :: !items;
                  more ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ]"
            in
            more ();
            List (List.rev !items)
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let fields = ref [ field () ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields := field () :: !fields;
                  more ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or }"
            in
            more ();
            Obj (List.rev !fields)
          end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing input";
      v
    with
    | v -> Ok v
    | exception Parse_fail (pos, msg) ->
        Error (Printf.sprintf "at offset %d: %s" pos msg)

  let equal (a : t) (b : t) = a = b

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

let trace_document () =
  Mutex.lock registry_mutex;
  let sinks = List.sort (fun a b -> compare a.domain b.domain) !sinks in
  let span_names = Array.sub spans_reg.names 0 spans_reg.used in
  Mutex.unlock registry_mutex;
  let t0 =
    List.fold_left
      (fun acc s ->
        let acc = ref acc in
        for i = 0 to s.n_events - 1 do
          if s.events.(i).ev_ts < !acc then acc := s.events.(i).ev_ts
        done;
        !acc)
      max_int sinks
  in
  let events = ref [] in
  (* newest events first per sink; reverse at the end for a stable,
     roughly chronological document *)
  List.iter
    (fun s ->
      for i = s.n_events - 1 downto 0 do
        let ev = s.events.(i) in
        let base =
          [
            ("name", Json.String span_names.(ev.ev_span));
            ("cat", Json.String "obs");
            ("ph", Json.String "X");
            ("ts", Json.Float (float_of_int (ev.ev_ts - t0) /. 1e3));
            ("dur", Json.Float (float_of_int ev.ev_dur /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int s.domain);
          ]
        in
        let fields =
          if ev.ev_index = min_int then base
          else base @ [ ("args", Json.Obj [ ("i", Json.Int ev.ev_index) ]) ]
        in
        events := Json.Obj fields :: !events
      done)
    sinks;
  Json.Obj
    [
      ("traceEvents", Json.List !events);
      ("displayTimeUnit", Json.String "ms");
    ]

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (trace_document ())))
