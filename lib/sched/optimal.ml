type objective = Max_lifetime | Min_stranded | Min_lifetime

(* Observability (lib/obs).  The integer counters are synced from the
   search's own [stats] refs at the moment the stats snapshot is taken,
   so the reported Obs counters are bit-equal to [result.stats] by
   construction (asserted in the test suite); only the depth histogram
   and the spans are recorded in-loop, behind the enabled flag. *)
let c_positions = Obs.counter "optimal.positions"
let c_segments = Obs.counter "optimal.segments"
let c_memo_hits = Obs.counter "optimal.memo_hits"
let c_memo_misses = Obs.counter "optimal.memo_misses"
let c_bound_cuts = Obs.counter "optimal.bound_cuts"
let c_searches = Obs.counter "optimal.searches"
let c_exhausted = Obs.counter "optimal.budget_exhausted"
let h_depth = Obs.histogram "optimal.depth"
let s_search = Obs.span "optimal.search"
let s_branch = Obs.span "optimal.branch"

type fallback = Search_prefix | Policy_floor

type exhaustion = { trip : Guard.Budget.trip; fallback : fallback }

type status = Optimal | Budget_exhausted of exhaustion

type checkpoint = { path : string; every_segments : int; resume : bool }

let checkpoint ?(every_segments = 65_536) ?(resume = false) path =
  if every_segments < 1 then
    invalid_arg "Sched.Optimal.checkpoint: every_segments >= 1";
  { path; every_segments; resume }

type result = {
  lifetime_steps : int;
  stranded_units : int;
  schedule : int array;
  status : status;
  stats : stats;
}

and stats = {
  positions_explored : int;
  segments_run : int;
  pruned : int;
  bound_cuts : int;
}

exception Load_too_short

type pos = {
  y : int;  (** job epoch index where serving (re)starts *)
  local : int;  (** offset into epoch [y] *)
  bank : Bank.t;
}

type seg_outcome =
  | Terminal of int * int  (* death step, stranded units *)
  | Next of pos
  | Exhausted

(* Advance from the start of epoch [y] through idle epochs to the next job
   epoch; batteries recover along the way.  Mutates [bank]. *)
let rec advance_to_job cursor y bank =
  if y >= Loads.Cursor.epoch_count cursor then Exhausted
  else if not (Loads.Cursor.is_idle cursor y) then Next { y; local = 0; bank }
  else begin
    Bank.tick_all bank (Loads.Cursor.epoch_len cursor y);
    advance_to_job cursor (y + 1) bank
  end

(* Serve epoch [pos.y] from [pos.local] with battery [b]; deterministic up
   to the next decision point.  [skip_final] elides the draw that falls
   exactly on the epoch's last step — the go_off/use_charge race the
   published TA leaves open (see mli); the cursor folds it into the
   schedule. *)
let run_segment ?cache cursor ~switch_delay ~skip_final pos b =
  let y = pos.y in
  let len = Loads.Cursor.epoch_len cursor y in
  let start = Loads.Cursor.epoch_start cursor y in
  let bank = Bank.copy pos.bank in
  let sch = Loads.Cursor.schedule_from ~skip_final cursor y ~local:pos.local in
  match Bank.serve ?cache bank ~b sch with
  | Bank.Completed -> advance_to_job cursor (y + 1) bank
  | Bank.Died off ->
      let next = pos.local + off in
      let death_step = start + next in
      if Bank.all_dead bank then Terminal (death_step, Bank.stranded bank)
      else begin
        let resume = next + switch_delay in
        if resume < len then begin
          Bank.tick_all bank switch_delay;
          Next { y; local = resume; bank }
        end
        else begin
          Bank.tick_all bank (len - next);
          advance_to_job cursor (y + 1) bank
        end
      end

(* Canonical memo key: decision point plus the multiset of battery states
   (identical cells make schedules confluent up to battery renaming),
   [y; local] then the bank's sorted blocks ({!Bank.key}). *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  let hash (a : t) =
    let h = ref 0x3bf29ce484222325 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3 land max_int
    done;
    !h

  let of_pos (p : pos) =
    let key = Bank.key p.bank ~head:2 in
    key.(0) <- p.y;
    key.(1) <- p.local;
    key

  (* The planner's key: the window frontier, then the position's key. *)
  let framed ~frontier (p : pos) =
    let key = Bank.key p.bank ~head:3 in
    key.(0) <- frontier;
    key.(1) <- p.y;
    key.(2) <- p.local;
    key
end

module Tbl = Hashtbl.Make (Key)

(* The key of a position the core does not memoize. *)
let unkeyed : Key.t = [||]

(* Checkpoint framing (Guard.Checkpoint does the atomic write and the
   checksum; see doc/ROBUSTNESS.md).  The fingerprint digests every
   input the memo values depend on, so a snapshot from a different
   load, pack or objective is refused instead of silently poisoning a
   resumed search — memo entries are exact subtree values, but only
   for the inputs that produced them.  The discretization enters as its
   six defining fields ([Discretization.fields]), never as the record:
   the record also holds its lazily built timeline tables, and a digest
   must not depend on which of them a run happened to build. *)
let memo_magic = "sched.optimal.memo.v2"

(* Bounds default to on; the environment switch lets `dune runtest` and
   A/B comparisons exercise the unpruned search without touching every
   call site (the CLI's --no-bounds passes [~bounds:false] explicitly). *)
let bounds_default () =
  match Sys.getenv_opt "BATSCHED_NO_BOUNDS" with
  | None | Some "" -> true
  | Some _ -> false

let fingerprint ~switch_delay ~objective ~allow_final_draw_skip ~initial
    ~n_batteries disc load =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( Dkibam.Discretization.fields disc,
            load,
            n_batteries,
            switch_delay,
            objective,
            allow_final_draw_skip,
            initial )
          []))

(* ------------------------------------------------------------------ *)
(* The search core                                                     *)
(* ------------------------------------------------------------------ *)

(* One memoized, bound-pruned depth-first search serves the exact
   search and the Horizon planner alike: the exact search is the
   planner with its frontier past the end of the load, plus an
   objective, a node floor and schedule extraction.  A [core] fixes, for
   one call, everything in which the two differ. *)

type work = {
  mutable segments : int;
  mutable pruned : int;  (** memo hits *)
  mutable misses : int;  (** positions explored *)
  mutable cuts : int;
}

let fresh_work () = { segments = 0; pruned = 0; misses = 0; cuts = 0 }

type core = {
  cursor : Loads.Cursor.t;
  switch_delay : int;
  try_skip : bool;  (** each battery also tried with the final-draw skip *)
  frontier : int;  (** positions in epochs [>= frontier] score [terminal] *)
  terminal : pos -> int;
  outlived : unit -> int;  (** value of a continuation outliving the load *)
  score : int -> int -> int;  (** objective score of a death step, stranded *)
  ub : pos -> int;
      (** admissible upper bound on a position's value; [max_int] when
          the bound cannot cut *)
  floor : pos -> int;
      (** achievable floor seeding a node's best value; never above
          [ub] *)
  span : Dkibam.Span_cache.t option;
      (** the serving battery's span cache, for plan segments *)
  jobs_before : int array;  (** epoch [e] -> job epochs before [e] *)
  memo_jobs : int;
      (** memoize only positions with at least this many job epochs
          before the frontier; [0]: every position *)
  key : pos -> Key.t;
  table : int Tbl.t;
  shared : Memo.scope option;
  pending : (Key.t * int) list ref;
      (** this search's stores, newest first, not yet in [shared] *)
  charge : unit -> unit;  (** budget hook, once per simulated segment *)
  on_miss : int -> unit;  (** once per explored position, with its depth *)
  work : work;
}

(* Cross-request shared store (Sched.Memo): lookups fall through the
   private table to the shared one (copying hits local, so the shared
   shard lock is taken once per distinct position).  Stores stay
   private until the search ends exact — [publish] — so a search a
   budget stops adds nothing to the store.  Every entry is an exact
   value, so warmth changes the work, never the result. *)
let lookup c key =
  match Tbl.find_opt c.table key with
  | Some _ as v -> v
  | None -> (
      match c.shared with
      | None -> None
      | Some s -> (
          match Memo.find s key with
          | Some v ->
              Tbl.replace c.table key v;
              Some v
          | None -> None))

let store c key v =
  Tbl.replace c.table key v;
  match c.shared with
  | Some _ -> c.pending := (key, v) :: !(c.pending)
  | None -> ()

(* Oldest first, as the stores happened: a subtree's root is inserted
   after its descendants and so is the last the store evicts. *)
let publish c =
  (match c.shared with
  | Some s -> List.iter (fun (k, v) -> Memo.add s k v) (List.rev !(c.pending))
  | None -> ());
  c.pending := []

(* Whether the core memoizes position [p] (see [memo_jobs]). *)
let memoized c (p : pos) =
  c.memo_jobs = 0
  || c.jobs_before.(c.frontier) - c.jobs_before.(p.y) >= c.memo_jobs

let choices c (p : pos) =
  List.concat_map
    (fun b -> if c.try_skip then [ (b, false); (b, true) ] else [ (b, false) ])
    (Bank.alive p.bank)

(* What [child] reports for a cut: the child's value is only known to
   be at most the best sibling value, and [min_int] never wins a max. *)
let cut = min_int

let no_child _ _ _ = ()
let no_cut _ = max_int

(* [value c ~depth ~seed ~on_child key p]: the exact value of position
   [p], whose memo key [key] has just missed — the max of [seed] and of
   its children's values.  [seed] must be achievable by some
   continuation, so the stored maximum stays exact while it lets
   dominated children be cut before any of them is explored.  The
   children are the alive batteries in id order, each without and then
   (when tried) with the final-draw skip; [on_child b skip v] sees each
   child value that was not cut, in that order.  [depth] counts
   decisions from the root and only feeds [on_miss]. *)
let rec value c ~depth ~seed ~on_child key p =
  c.work.misses <- c.work.misses + 1;
  c.on_miss depth;
  let best = ref seed in
  let skips = if c.try_skip then 1 else 0 in
  for b = 0 to Bank.size p.bank - 1 do
    if not (Bank.is_dead p.bank b) then
      for s = 0 to skips do
        let v = child c ~depth !best p b (s = 1) in
        if v <> cut then begin
          on_child b (s = 1) v;
          if v > !best then best := v
        end
      done
  done;
  (* a decision point always has at least one alive battery *)
  assert (!best > min_int);
  if key != unkeyed then store c key !best;
  !best

(* [child c ~depth best p b skip_final]: serve from [p] with battery
   [b] up to the next decision point, then value the outcome — a death
   by its score, a frontier position by [terminal], a continuation past
   the load by [outlived], an explored position by its memo entry
   when [memoized] keys it.
   Memoized children are looked up before the bound check, so hit/miss
   counts match the unpruned search exactly.  A miss whose upper bound
   cannot beat [best] is cut: its value is [<= ub <= best], so the
   parent's max — and, because [best] only grows along the first-max
   fold, its argmax and the replayed schedule — are unchanged.  Any
   other miss is explored, seeded by its floor.  The floor is asked
   first because [floor <= value <= ub]: with [best = min_int] (the
   first child of an unseeded node) or a floor above [best], [ub] must
   exceed [best] too, so the bound is not asked at all — the cut
   decision is the one the [ub] query would make. *)
and child c ~depth best p b skip_final =
  c.work.segments <- c.work.segments + 1;
  c.charge ();
  match
    run_segment ?cache:c.span c.cursor ~switch_delay:c.switch_delay
      ~skip_final p b
  with
  | Terminal (step, stranded) -> c.score step stranded
  | Exhausted -> c.outlived ()
  | Next p' -> (
      if p'.y >= c.frontier then c.terminal p'
      else
        let key = if memoized c p' then c.key p' else unkeyed in
        match if key == unkeyed then None else lookup c key with
        | Some v ->
            c.work.pruned <- c.work.pruned + 1;
            v
        | None ->
            let floor = c.floor p' in
            if best > min_int && floor <= best && c.ub p' <= best then begin
              c.work.cuts <- c.work.cuts + 1;
              cut
            end
            else
              value c ~depth:(depth + 1) ~seed:floor ~on_child:no_child key p')

(* The first choice at [p] whose value is [v] — the same selection the
   strict-argmax fold makes.  Asking [child] to beat [v - 1] skips, with
   bounds on, every sibling whose upper bound falls strictly below [v]:
   it cannot be that first match. *)
let first_match c p v =
  List.find (fun (b, sk) -> child c ~depth:0 (v - 1) p b sk = v) (choices c p)

(* ------------------------------------------------------------------ *)
(* Exact search                                                        *)
(* ------------------------------------------------------------------ *)

(* Objective-specific admissible upper bound on the score at a position;
   [max_int] when the bound cannot cut — in particular whenever some
   continuation might outlive the load, because a pruned subtree must
   be provably free of [Load_too_short]. *)
let score_ub objective bd ~y ~local bank =
  let ub = Bound.lifetime_ub bd ~y ~local bank in
  if ub >= Bound.infinite then max_int
  else
    match objective with
    | Max_lifetime -> ub
    | Min_stranded -> -Bound.stranded_lb bd ~y ~local bank
    | Min_lifetime ->
        let lb = Bound.lifetime_lb bd ~y ~local bank in
        if lb >= Bound.infinite then max_int else -lb

(* Achievable floor on the score at a position: every continuation dies
   (one that outlives the load raises [Load_too_short]), and each that
   dies scores at least this much. *)
let score_floor objective bd ~y ~local bank =
  match objective with
  | Max_lifetime ->
      let lb = Bound.lifetime_lb bd ~y ~local bank in
      if lb >= Bound.infinite then min_int else lb
  | Min_lifetime ->
      let ub = Bound.lifetime_ub bd ~y ~local bank in
      if ub >= Bound.infinite then min_int else -ub
  | Min_stranded -> min_int

let search ?pool ?budget ?checkpoint ?shared ?(switch_delay = 1)
    ?(objective = Max_lifetime) ?bounds ?(allow_final_draw_skip = false)
    ?initial ~n_batteries (disc : Dkibam.Discretization.t)
    (load : Loads.Arrays.t) =
  (match initial with
  | Some a when Array.length a <> n_batteries ->
      invalid_arg "Sched.Optimal.search: initial length mismatch"
  | _ -> ());
  if n_batteries < 1 then invalid_arg "Sched.Optimal.search: need >= 1 battery";
  Loads.Arrays.check_compatible load ~time_step:disc.time_step
    ~charge_unit:disc.charge_unit;
  Obs.incr c_searches;
  Obs.time s_search @@ fun () ->
  let cursor = Loads.Cursor.make load in
  let score step stranded_units =
    match objective with
    | Max_lifetime -> step
    | Min_stranded -> -stranded_units
    | Min_lifetime -> -step
  in
  let bounds_on = match bounds with Some b -> b | None -> bounds_default () in
  let bound =
    if bounds_on then
      Some (Bound.create ~switch_delay ~allow_final_draw_skip disc cursor)
    else None
  in
  let ub, floor =
    match bound with
    | None -> (no_cut, fun _ -> min_int)
    | Some bd ->
        ( (fun (p : pos) -> score_ub objective bd ~y:p.y ~local:p.local p.bank),
          fun (p : pos) -> score_floor objective bd ~y:p.y ~local:p.local p.bank
        )
  in
  let table : int Tbl.t = Tbl.create 4096 in
  let work = fresh_work () in
  (* Budget hooks.  [armed] is cleared once the search phase ends so the
     replay below (all memo hits) and the floor fallback can never trip;
     with no budget both hooks are no-ops and the search is bit-identical
     to the unbudgeted one. *)
  let armed = ref true in
  let charge () =
    match budget with
    | Some b when !armed -> Guard.Budget.charge_segment_exn b
    | _ -> ()
  in
  let note_position () =
    match budget with
    | Some b when !armed ->
        Guard.Budget.note_positions b 1;
        Guard.Budget.check_exn b
    | _ -> ()
  in
  (* Checkpointing (serial search only — [?pool] is ignored when a
     checkpoint is given).  Snapshots only ever contain fully-solved
     positions: an entry reaches the table after its whole subtree has
     been evaluated, so a snapshot taken mid-search — or left behind by
     a killed process — preloads as a pure cache and the resumed search
     returns the same lifetime, stranded charge and schedule as an
     uninterrupted run. *)
  let fp =
    lazy
      (fingerprint ~switch_delay ~objective ~allow_final_draw_skip ~initial
         ~n_batteries disc load)
  in
  let ckpt_save () =
    match checkpoint with
    | None -> ()
    | Some ck ->
        let entries = Tbl.fold (fun k v acc -> (k, v) :: acc) table [] in
        (* the flag is informational: entries are exact subtree values in
           both modes, so a snapshot resumes soundly across modes and the
           fingerprint deliberately excludes it *)
        let payload =
          Marshal.to_string
            ((bounds_on, Array.of_list entries) : bool * (Key.t * int) array)
            []
        in
        Guard.Checkpoint.save ~path:ck.path ~magic:memo_magic
          ~fingerprint:(Lazy.force fp) payload
  in
  let last_ckpt = ref 0 in
  let maybe_ckpt () =
    match checkpoint with
    | Some ck when work.segments - !last_ckpt >= ck.every_segments ->
        last_ckpt := work.segments;
        ckpt_save ()
    | _ -> ()
  in
  (match checkpoint with
  | Some ck when ck.resume -> (
      match
        Guard.Checkpoint.load ~path:ck.path ~magic:memo_magic
          ~fingerprint:(Lazy.force fp)
      with
      | Ok payload ->
          let (_saved_with_bounds : bool), (entries : (Key.t * int) array) =
            Marshal.from_string payload 0
          in
          Array.iter (fun (k, v) -> Tbl.replace table k v) entries
      | Error Guard.Checkpoint.Missing -> ()
      | Error (Guard.Checkpoint.Bad e) -> Guard.Error.raise_exn e)
  | _ -> ());
  (* The shared store's scope fingerprint digests every input the values
     depend on, so entries never leak across loads, packs or objectives;
     bit-identity cold/warm/evicted is asserted in test/test_memo.ml.
     Safe from concurrent searches on any domain (Memo is sharded +
     locked; the private table is not shared). *)
  let c =
    {
      cursor;
      switch_delay;
      try_skip = allow_final_draw_skip;
      (* a [Next] position always lies inside the load, so with the
         frontier past its end the terminal value is never asked for *)
      frontier = Loads.Cursor.epoch_count cursor;
      terminal = (fun _ -> assert false);
      outlived = (fun () -> raise Load_too_short);
      score;
      ub;
      floor;
      span = None;
      jobs_before = [||];
      memo_jobs = 0;
      key = Key.of_pos;
      table;
      shared =
        Option.map
          (fun m -> Memo.scope m ~fingerprint:("search|" ^ Lazy.force fp))
          shared;
      pending = ref [];
      charge;
      on_miss =
        (fun depth ->
          note_position ();
          Obs.observe h_depth depth;
          maybe_ckpt ());
      work;
    }
  in
  let root =
    match advance_to_job cursor 0 (Bank.create ?initial ~n_batteries disc) with
    | Next p -> p
    | Exhausted -> raise Load_too_short
    | Terminal _ -> assert false
  in
  let root_key = Key.of_pos root in
  let root_choices = choices c root in
  (* Root evaluation.  Both paths go one first-decision branch at a
     time, so that on budget exhaustion every branch completed so far
     is a fully-memoized, exact subtree — the anytime result below
     replays the best of them.  [completed] collects (choice, value) in
     reverse evaluation order; a tripped evaluation returns the first
     trip instead of the root value. *)
  let completed = ref [] in
  (* Incumbent: one best-of-two policy run — the same floor the anytime
     fallback uses — scores a schedule that is a path of this very tree,
     so its score never exceeds the true optimum and seeding the root
     [best] with it is exact.  Only computed with bounds on: with bounds
     off nothing could consume it and the search must reproduce the
     historical unpruned behaviour segment for segment. *)
  let incumbent_floor =
    match bound with
    | None -> min_int
    | Some _ -> (
        let o =
          Simulator.simulate ?initial ~switch_delay ~n_batteries
            ~policy:Policy.Best_of disc load
        in
        match o.Simulator.lifetime_steps with
        | None -> min_int
        | Some steps -> score steps (Bank.stranded_units o.Simulator.final))
  in
  let eval_serial () =
    match lookup c root_key with
    | Some v ->
        work.pruned <- work.pruned + 1;
        Ok v
    | None -> (
        (* the root's position note runs inside the handler: a budget
           shared across searches may already be tripped on entry, and
           that must surface as an anytime status, not an exception *)
        try
          Ok
            (value c ~depth:0 ~seed:incumbent_floor
               ~on_child:(fun b sk v -> completed := ((b, sk), v) :: !completed)
               root_key root)
        with Guard.Budget.Tripped r -> Error r)
  in
  (* Root fan-out: each first decision is searched in its own domain
     with a private memo table (values are exact, so any table agrees
     with any other on shared keys), then the tables are merged and the
     root entry derived from the branch values.  The replay below then
     runs against the merged table and reproduces the serial schedule
     exactly — branch values are the same integers the serial search
     computes.  A shared budget stops all branches: the first trip
     latches the budget's cancel token, and every sibling unwinds at its
     next charge; tripped branches report so, and their partial tables
     still merge — each entry is exact. *)
  let eval_pooled pool =
    let root_choices = Array.of_list root_choices in
    (* Branches prune against the up-front incumbent only — a fixed
       threshold every domain sees identically, so which branches are
       cut never depends on completion order.  A cut branch is settled
       (its value is provably <= the incumbent, which the root max
       already includes), so cuts count towards completion. *)
    let branch (b, sk) =
      let bc =
        {
          c with
          table = Tbl.create 4096;
          work = fresh_work ();
          pending = ref [];
        }
      in
      match child bc ~depth:0 incumbent_floor root b sk with
      | v -> (Some v, bc)
      | exception Guard.Budget.Tripped _ -> (None, bc)
    in
    let branches =
      Exec.Pool.parallel_init ~chunk:1 pool (Array.length root_choices)
        (fun i -> Obs.time ~index:i s_branch (fun () -> branch root_choices.(i)))
    in
    let settled = ref 0 in
    Array.iteri
      (fun i (o, bc) ->
        work.segments <- work.segments + bc.work.segments;
        work.pruned <- work.pruned + bc.work.pruned;
        work.misses <- work.misses + bc.work.misses;
        work.cuts <- work.cuts + bc.work.cuts;
        Tbl.iter (fun k v -> Tbl.replace table k v) bc.table;
        c.pending := !(bc.pending) @ !(c.pending);
        match o with
        | Some v ->
            incr settled;
            if v <> cut then completed := (root_choices.(i), v) :: !completed
        | None -> ())
      branches;
    if !settled = Array.length root_choices then begin
      let best =
        List.fold_left (fun acc (_, v) -> max acc v) incumbent_floor !completed
      in
      store c root_key best;
      Ok best
    end
    else
      Error
        (match budget with
        | Some b -> (
            match Guard.Budget.tripped b with
            | Some r -> r
            | None -> Guard.Budget.Cancelled)
        | None -> Guard.Budget.Cancelled)
  in
  (* A checkpointed search runs serially: the snapshot cadence is tied
     to the one shared memo table. *)
  let outcome =
    match pool with
    | Some pool when checkpoint = None && List.length root_choices > 1 ->
        eval_pooled pool
    | _ -> eval_serial ()
  in
  armed := false;
  (* Final snapshot: a completed run leaves a full-resume cache; a
     tripped run leaves every subtree it solved. *)
  ckpt_save ();
  (* Search-phase statistics, snapshotted before the replay below adds
     its own memo lookups.  The Obs counters are synced from the very
     same values, so [--stats] reports exactly [result.stats] plus the
     miss count. *)
  let stats =
    {
      positions_explored = Tbl.length table;
      segments_run = work.segments;
      pruned = work.pruned;
      bound_cuts = work.cuts;
    }
  in
  Obs.add c_positions stats.positions_explored;
  Obs.add c_segments stats.segments_run;
  Obs.add c_memo_hits stats.pruned;
  Obs.add c_memo_misses work.misses;
  Obs.add c_bound_cuts stats.bound_cuts;
  (* Reconstruct one schedule of value [v]: commit choice [ch] at [p],
     then the first match at every position after it.  The committed
     segment is simulated once more to step onto its outcome; a child
     the search itself cut may have to be evaluated by [first_match]
     (it memoizes as it goes, after the stats snapshot above and with
     the budget disarmed). *)
  let rec follow p (b, skip_final) v acc =
    let acc = b :: acc in
    match run_segment cursor ~switch_delay ~skip_final p b with
    | Terminal (lifetime_steps, stranded_units) ->
        (lifetime_steps, stranded_units, Array.of_list (List.rev acc))
    | Next p' -> follow p' (first_match c p' v) v acc
    | Exhausted -> raise Load_too_short
  in
  let finish status (lifetime_steps, stranded_units, schedule) =
    { lifetime_steps; stranded_units; schedule; status; stats }
  in
  match outcome with
  | Ok v ->
      let r = finish Optimal (follow root (first_match c root v) v []) in
      (* exact to the root: the branches' and the replay's entries go
         public together; a tripped search keeps them private *)
      publish c;
      r
  | Error trip -> (
      Obs.incr c_exhausted;
      (* Anytime degradation: the best fully-evaluated first-decision
         branch — an exact value, replayable to a feasible schedule
         from the memo — floored by one best-of-two policy simulation.
         Whichever scores better is returned; the budget never turns
         into an exception here. *)
      let floor_score, floor_run =
        let o =
          Simulator.simulate ?initial ~switch_delay ~n_batteries
            ~policy:Policy.Best_of disc load
        in
        match o.Simulator.lifetime_steps with
        | None -> raise Load_too_short
        | Some steps ->
            let stranded = Bank.stranded_units o.Simulator.final in
            ( score steps stranded,
              ( steps,
                stranded,
                Array.of_list (List.map snd o.Simulator.decisions) ) )
      in
      let best_branch =
        List.fold_left
          (fun acc (ch, v) ->
            match acc with
            | Some (_, bv) when bv >= v -> acc
            | _ -> Some (ch, v))
          None (List.rev !completed)
      in
      match best_branch with
      | Some (ch, v) when v >= floor_score ->
          finish
            (Budget_exhausted { trip; fallback = Search_prefix })
            (follow root ch v [])
      | _ ->
          finish (Budget_exhausted { trip; fallback = Policy_floor }) floor_run)

let lifetime ?pool ?budget ?switch_delay ?objective ?bounds
    ?allow_final_draw_skip ?initial ~n_batteries disc load =
  Dkibam.Discretization.minutes_of_steps disc
    (search ?pool ?budget ?switch_delay ?objective ?bounds
       ?allow_final_draw_skip ?initial ~n_batteries disc load)
      .lifetime_steps

(* ------------------------------------------------------------------ *)
(* Suffix planning with a terminal bound — the Horizon policy's core   *)
(* ------------------------------------------------------------------ *)

type planner = {
  p_cursor : Loads.Cursor.t;
  p_bound : Bound.t;  (* asked for [lifetime_lb] only *)
  p_switch_delay : int;
  p_jobs_before : int array;
  (* Memo entries are exact window values; the frontier epoch is part of
     the key because the same position has a different value under a
     different window.  Successive plans at the same frontier (mid-job
     replans, and every plan once the window covers the whole load)
     therefore share subtrees across decisions. *)
  p_memo : int Tbl.t;
  (* Cross-planner shared store, narrowed to this load, discretization
     and switch delay: window values there are exact, so re-plans from
     different requests — and different worker domains — reuse each
     other's subtrees, and planners of other loads never see them. *)
  p_shared : Memo.scope option;
}

type plan = { plan_choice : int; plan_value : int }

(* Observability: each plan's [work], synced once per plan as the
   search syncs [optimal.*]. *)
let c_plan_segments = Obs.counter "horizon.segments"
let c_plan_positions = Obs.counter "horizon.positions"
let c_plan_memo_hits = Obs.counter "horizon.memo_hits"
let c_span_hits = Obs.counter "horizon.span_hits"
let c_span_misses = Obs.counter "horizon.span_misses"

(* A plan memoizes a position only when at least this many jobs are
   left before its frontier.  Most window positions have one or two
   (78 % of them on perfbench's Horizon loads at k = 4), their subtrees
   are a few segments that the span cache mostly answers, and keying,
   hashing and storing each costs more than re-serving it.  Deeper
   positions root subtrees worth keeping: with no plan memo at all,
   test_horizon's full-window cases run about eight times longer. *)
let plan_memo_jobs = 3

let planner ?(switch_delay = 1) ?shared (disc : Dkibam.Discretization.t)
    (cursor : Loads.Cursor.t) =
  let e_count = Loads.Cursor.epoch_count cursor in
  let jobs_before = Array.make (e_count + 1) 0 in
  for e = 0 to e_count - 1 do
    jobs_before.(e + 1) <-
      (jobs_before.(e) + if Loads.Cursor.is_idle cursor e then 0 else 1)
  done;
  {
    p_cursor = cursor;
    p_bound =
      Bound.create ~switch_delay ~allow_final_draw_skip:false ~hull_tree:false
        disc cursor;
    p_switch_delay = switch_delay;
    p_jobs_before = jobs_before;
    p_memo = Tbl.create 1024;
    p_shared =
      Option.map
        (fun s ->
          Memo.narrow s
            ("plan|"
            ^ Digest.to_hex
                (Digest.string
                   (Marshal.to_string
                      ( Dkibam.Discretization.fields disc,
                        Loads.Cursor.arrays cursor,
                        switch_delay )
                      []))))
        shared;
  }

let plan ?budget t ~frontier_epoch ~y ~local bank =
  let cursor = t.p_cursor and bd = t.p_bound in
  if y < 0 || y >= Loads.Cursor.epoch_count cursor then
    invalid_arg "Sched.Optimal.plan: y out of range";
  if local < 0 || local >= Loads.Cursor.epoch_len cursor y then
    invalid_arg "Sched.Optimal.plan: local out of range";
  if not (Bank.any_alive bank) then
    invalid_arg "Sched.Optimal.plan: no battery alive";
  (* Certified window values: a position's value is the max over
     battery choices of the death step, the terminal bound at the
     frontier, or [Bound.infinite] when the load ends first.  Every
     value is a death step some continuation is proven to reach, so
     committing the argmax is well-founded.  Plan nodes stay unseeded:
     the search's floor [lifetime_lb] is exact there only because every
     continuation runs to a death, while a window value may come from
     the frontier bound instead.  Nor is any child cut: a cut needs an
     upper bound on the death step at or below the best sibling, and
     window values are mostly terminal lower bounds, far below any such
     bound (11 cuts for 15,918 queries on perfbench's Horizon loads). *)
  let span = Dkibam.Span_cache.for_domain (Bank.disc bank) in
  let hits0 = Dkibam.Span_cache.hits span
  and misses0 = Dkibam.Span_cache.misses span in
  let work = fresh_work () in
  let c =
    {
      cursor;
      switch_delay = t.p_switch_delay;
      try_skip = false;
      frontier = frontier_epoch;
      (* admissible terminal value: the pooled-recovery lower bound —
         every continuation from the frontier survives to at least this
         step ([Bound.infinite]: none can die within the load) *)
      terminal = (fun p -> Bound.lifetime_lb bd ~y:p.y ~local:p.local p.bank);
      outlived = (fun () -> Bound.infinite);
      score = (fun step _ -> step);
      ub = no_cut;
      floor = (fun _ -> min_int);
      span = Some span;
      jobs_before = t.p_jobs_before;
      memo_jobs = plan_memo_jobs;
      key = Key.framed ~frontier:frontier_epoch;
      table = t.p_memo;
      shared = t.p_shared;
      pending = ref [];
      charge =
        (match budget with
        | Some b -> fun () -> Guard.Budget.charge_segment_exn b
        | None -> ignore);
      on_miss = ignore;
      work;
    }
  in
  let sync () =
    Obs.add c_plan_segments work.segments;
    Obs.add c_plan_positions work.misses;
    Obs.add c_plan_memo_hits work.pruned;
    Obs.add c_span_hits (Dkibam.Span_cache.hits span - hits0);
    Obs.add c_span_misses (Dkibam.Span_cache.misses span - misses0)
  in
  let root = { y; local; bank } in
  let choice = ref (-1) and best = ref min_int in
  match
    value c ~depth:0 ~seed:min_int
      ~on_child:(fun b _ v ->
        if v > !best then begin
          best := v;
          choice := b
        end)
      (if memoized c root then c.key root else unkeyed)
      root
  with
  | v ->
      sync ();
      publish c;
      Some { plan_choice = !choice; plan_value = v }
  | exception Guard.Budget.Tripped _ ->
      sync ();
      None
