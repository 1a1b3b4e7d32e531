(* Result cache with crash-safe persistence and a size bound.

   On-disk format: a Guard.Checkpoint frame (magic
   [batsched.serve.cache.v2], fingerprint = format + grid version) whose
   payload is one [key SP value] line per entry, sorted by key.  Keys
   are MD5 hexes (no spaces); values are single-line JSON (Obs.Json
   never emits newlines), so the line format is unambiguous.  Sorting
   makes saves deterministic: two daemons that answered the same
   queries write identical snapshots.

   Bounded: [max_entries] caps the table, enforced second-chance
   (CLOCK — the same scheme as Sched.Memo): a FIFO of keys with a
   referenced bit set per hit; the victim scan recycles referenced
   keys once before evicting.  Eviction only forgets answers — an
   evicted key is recomputed to the identical bytes on re-query
   (exact answers only ever enter the cache).

   Thread-safe: every operation holds the one internal mutex, so
   worker domains can find/add concurrently; the autosave fires inside
   the inserting caller's lock hold (rare, and the checkpoint write is
   the cost either way). *)

let c_hits = Obs.counter "serve.cache_hits"
let c_misses = Obs.counter "serve.cache_misses"
let c_evictions = Obs.counter "serve.cache_evictions"
let g_entries = Obs.gauge "serve.cache_entries"

(* v2: spec loads are keyed on their exact parsed epochs, no longer on
   a six-digit render; a v1 snapshot's keys may name the wrong load, so
   it is refused rather than read. *)
let magic = "batsched.serve.cache.v2"

(* Bump when the payload format or the result schema changes: a
   fingerprint mismatch is a clean cold start, not a parse attempt. *)
let fingerprint = "v1-grid0.01x0.01"

type entry = { value : string; mutable referenced : bool }

type t = {
  lock : Mutex.t;
  path : string option;
  save_every : int;
  max_entries : int;
  tbl : (string, entry) Hashtbl.t;
  fifo : string Queue.t;
  mutable unsaved : int;  (* inserts since the last save *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
}

type load_status = Cold | Warm of int | Discarded of Guard.Error.t

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Lock held.  Same termination argument as Sched.Memo: recycled keys
   lose their bit, so at most one FIFO lap precedes an eviction; the
   FIFO covers the table (only evictions remove), so an empty FIFO
   means an empty table. *)
let rec evict_one t =
  match Queue.take_opt t.fifo with
  | None -> Hashtbl.reset t.tbl
  | Some k -> (
      match Hashtbl.find_opt t.tbl k with
      | Some e when e.referenced ->
          e.referenced <- false;
          Queue.push k t.fifo;
          evict_one t
      | Some _ ->
          Hashtbl.remove t.tbl k;
          t.eviction_count <- t.eviction_count + 1;
          Obs.incr c_evictions
      | None -> evict_one t)

(* Lock held (or pre-publication in [create]). *)
let insert t key value =
  if not (Hashtbl.mem t.tbl key) then begin
    while Hashtbl.length t.tbl >= t.max_entries do
      evict_one t
    done;
    Hashtbl.add t.tbl key { value; referenced = false };
    Queue.push key t.fifo;
    true
  end
  else false

let create ?path ?(save_every = 32) ?(max_entries = 65536) () =
  if save_every < 1 then
    invalid_arg
      (Printf.sprintf "Serve.Cache.create: save_every = %d < 1" save_every);
  if max_entries < 1 then
    invalid_arg
      (Printf.sprintf "Serve.Cache.create: max_entries = %d < 1" max_entries);
  let t =
    {
      lock = Mutex.create ();
      path;
      save_every;
      max_entries;
      tbl = Hashtbl.create 256;
      fifo = Queue.create ();
      unsaved = 0;
      hit_count = 0;
      miss_count = 0;
      eviction_count = 0;
    }
  in
  let status =
    match path with
    | None -> Cold
    | Some path -> (
        match Guard.Checkpoint.load ~path ~magic ~fingerprint with
        | Error Guard.Checkpoint.Missing -> Cold
        | Error (Guard.Checkpoint.Bad e) -> Discarded e
        | Ok payload ->
            String.split_on_char '\n' payload
            |> List.iter (fun line ->
                   if line <> "" then
                     match String.index_opt line ' ' with
                     | None -> ()
                     | Some i ->
                         let key = String.sub line 0 i in
                         let value =
                           String.sub line (i + 1) (String.length line - i - 1)
                         in
                         ignore (insert t key value : bool));
            Warm (Hashtbl.length t.tbl))
  in
  Obs.gauge_max g_entries (Hashtbl.length t.tbl);
  (t, status)

let entries t = with_lock t (fun () -> Hashtbl.length t.tbl)
let hits t = with_lock t (fun () -> t.hit_count)
let misses t = with_lock t (fun () -> t.miss_count)
let evictions t = with_lock t (fun () -> t.eviction_count)
let lookups t = with_lock t (fun () -> t.hit_count + t.miss_count)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          e.referenced <- true;
          Obs.incr c_hits;
          t.hit_count <- t.hit_count + 1;
          Some e.value
      | None ->
          Obs.incr c_misses;
          t.miss_count <- t.miss_count + 1;
          None)

(* Lock held. *)
let save_locked t =
  match t.path with
  | None -> ()
  | Some path ->
      if t.unsaved > 0 then begin
        let entries =
          Hashtbl.fold (fun k e acc -> (k, e.value) :: acc) t.tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        let payload =
          String.concat ""
            (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") entries)
        in
        Guard.Checkpoint.save ~path ~magic ~fingerprint payload;
        t.unsaved <- 0
      end

let save t = with_lock t (fun () -> save_locked t)

let add t key value =
  with_lock t (fun () ->
      if insert t key value then begin
        Obs.gauge_max g_entries (Hashtbl.length t.tbl);
        t.unsaved <- t.unsaved + 1;
        if t.unsaved >= t.save_every then save_locked t
      end)
