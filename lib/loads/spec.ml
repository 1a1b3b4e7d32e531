exception Parse_error of string

(* All parse failures are structured (Guard.Error): they carry the
   offending field/token and the accepted shape, and [parse_result]
   attaches the full spec string as the input.  [fail] raises the
   internal exception the two entry points below convert. *)
let fail ?field ?value ?accepted fmt =
  Printf.ksprintf
    (fun what ->
      Guard.Error.raise_exn
        (Guard.Error.make ~subsystem:"loads.spec" ?field ?value ?accepted what))
    fmt

(* Tokenize: split on whitespace, but keep ';', '(' and ')' as their own
   tokens even when glued to neighbours. *)
let tokenize input =
  let buf = Buffer.create 16 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> flush ()
      | ';' | '(' | ')' ->
          flush ();
          tokens := String.make 1 c :: !tokens
      | c -> Buffer.add_char buf c)
    input;
  flush ();
  List.rev !tokens

let float_token what = function
  | Some tok -> (
      match float_of_string_opt tok with
      | Some f when f > 0.0 -> f
      | Some _ ->
          fail ~field:what ~value:tok ~accepted:"a positive number"
            "%s must be positive" what
      | None ->
          fail ~field:what ~value:tok ~accepted:"a positive number"
            "expected a number for %s" what)
  | None -> fail ~field:what ~accepted:"a positive number" "missing %s" what

let int_token what = function
  | Some tok -> (
      match int_of_string_opt tok with
      | Some n when n > 0 -> n
      | Some _ ->
          fail ~field:what ~value:tok ~accepted:"a positive integer"
            "%s must be positive" what
      | None ->
          fail ~field:what ~value:tok ~accepted:"a positive integer"
            "expected an integer for %s" what)
  | None -> fail ~field:what ~accepted:"a positive integer" "missing %s" what

let max_epochs = 20_000

let too_long ~field n =
  fail ~field ~value:(string_of_int n)
    ~accepted:(Printf.sprintf "at most %d epochs" max_epochs)
    "spec load too long"

(* Prepend one item's epochs to the join of the items after it, summing
   the two idles that meet at the boundary, if any.  Both sides are
   already merged inside, so that is the only merge, and joining right
   to left keeps the sums right-associated ([a +. (b +. c)]). *)
let join item rest =
  match (List.rev item, rest) with
  | Epoch.Idle a :: r, Epoch.Idle b :: rest ->
      List.rev_append r (Epoch.Idle (a +. b) :: rest)
  | r, _ -> List.rev_append r rest

let starts_idle = function Epoch.Idle _ :: _ -> true | _ -> false
let ends_idle es = starts_idle (List.rev es)

(* Recursive descent over the token list.  A sequence is collected item
   by item with the length of its join so far, and joined once at the
   end: linear in its length, and refused as soon as a prefix passes
   [max_epochs].  [repeat] is refused before it expands. *)
let parse_exn input =
  let tokens = ref (tokenize input) in
  let peek () = match !tokens with t :: _ -> Some t | [] -> None in
  let next () =
    match !tokens with
    | t :: rest ->
        tokens := rest;
        Some t
    | [] -> None
  in
  let expect tok =
    match next () with
    | Some t when t = tok -> ()
    | Some t ->
        fail ~field:"token" ~value:t ~accepted:(Printf.sprintf "%S" tok)
          "expected %S" tok
    | None ->
        fail ~field:"token" ~value:"end of input"
          ~accepted:(Printf.sprintf "%S" tok) "expected %S" tok
  in
  let rec seq () =
    let rec collect items len =
      let es = Epoch.epochs (item ()) in
      let merged =
        match items with
        | last :: _ -> ends_idle last && starts_idle es
        | [] -> false
      in
      let len = len + List.length es - Bool.to_int merged in
      if len > max_epochs then too_long ~field:"spec" len;
      match peek () with
      | Some ";" ->
          ignore (next ());
          collect (es :: items) len
      | _ -> es :: items
    in
    Epoch.of_epochs
      (List.fold_left (fun rest es -> join es rest) [] (collect [] 0))
  and item () =
    match next () with
    | Some "job" ->
        let current = float_token "job current (amperes)" (next ()) in
        let duration = float_token "job duration (minutes)" (next ()) in
        Epoch.job ~current ~duration
    | Some "idle" -> Epoch.idle (float_token "idle duration (minutes)" (next ()))
    | Some "repeat" ->
        let n = int_token "repeat count" (next ()) in
        expect "(";
        let body = seq () in
        expect ")";
        let count = Epoch.epoch_count body in
        if n > max_epochs / count then too_long ~field:"repeat count" n;
        Epoch.repeat n body
    | Some name -> (
        match Testloads.of_string name with
        | Some load -> Testloads.load load
        | None ->
            fail ~field:"item" ~value:name
              ~accepted:"job AMPS MINUTES | idle MINUTES | repeat N ( ... ) | \
                         a test-load name (e.g. ils_alt)"
              "unknown item")
    | None -> fail ~field:"spec" ~accepted:"at least one item" "empty specification"
  in
  let result = seq () in
  (match peek () with
  | Some t ->
      fail ~field:"token" ~value:t ~accepted:"end of input"
        "trailing input after the specification"
  | None -> ());
  result

let parse_result input =
  match parse_exn input with
  | v -> Ok v
  | exception Guard.Error.Error e ->
      Error { e with Guard.Error.input = Some input }

let parse input =
  match parse_result input with
  | Ok v -> v
  | Error e -> raise (Parse_error (Guard.Error.to_string e))

let to_string load =
  Epoch.epochs load
  |> List.map (function
       | Epoch.Job { current; duration } -> Printf.sprintf "job %g %g" current duration
       | Epoch.Idle d -> Printf.sprintf "idle %g" d)
  |> String.concat "; "
