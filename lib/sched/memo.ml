(* Process-wide concurrent memo store for exact search values.

   Sharded: a key hashes to one of [shards] independent
   mutex-protected hashtables, so concurrent searches on different
   worker domains contend only when their keys collide on a shard —
   the lock hold time is one hashtable probe or insert, never a search
   segment.  Values are exact subtree/window values (ints), so a racy
   double-compute of the same key always inserts the same value:
   first-writer-wins needs no compare.

   Bounded: each shard owns capacity/shards entries, evicted
   second-chance (CLOCK): a FIFO of keys with a referenced bit set on
   every hit; the victim scan clears bits and recycles until it finds
   an unreferenced key.  One full lap of the FIFO clears every bit, so
   the scan terminates and recently-hit entries survive one extra
   round — LRU-approximate at O(1) amortized per insert.

   Statistics are per-store atomics (exact under concurrency: every
   lookup increments [lookups] and exactly one of [hits]/[misses], so
   hits + misses = lookups once callers quiesce — asserted by the race
   tests), mirrored into the global [memo.*] Obs family. *)

let c_lookups = Obs.counter "memo.lookups"
let c_hits = Obs.counter "memo.hits"
let c_misses = Obs.counter "memo.misses"
let c_insertions = Obs.counter "memo.insertions"
let c_evictions = Obs.counter "memo.evictions"
let g_entries = Obs.gauge "memo.entries"

module Key = struct
  type t = { fp : string; cells : int array }

  let equal a b = String.equal a.fp b.fp && a.cells = b.cells

  let hash { fp; cells } =
    let h = ref (Hashtbl.hash fp) in
    Array.iter (fun v -> h := (!h lxor v) * 0x100000001b3 land max_int) cells;
    !h
end

module Tbl = Hashtbl.Make (Key)

type entry = { value : int; mutable referenced : bool }

type shard = {
  lock : Mutex.t;
  tbl : entry Tbl.t;
  fifo : Key.t Queue.t;  (* insertion order; may hold stale keys *)
  shard_capacity : int;
}

type t = {
  shards : shard array;
  capacity : int;
  entries : int Atomic.t;
  lookups : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  insertions : int Atomic.t;
  evictions : int Atomic.t;
}

type stats = {
  st_entries : int;
  st_capacity : int;
  st_lookups : int;
  st_hits : int;
  st_misses : int;
  st_insertions : int;
  st_evictions : int;
}

let create ?(shards = 16) ~capacity () =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Sched.Memo.create: capacity = %d < 1" capacity);
  if shards < 1 then
    invalid_arg (Printf.sprintf "Sched.Memo.create: shards = %d < 1" shards);
  let shards = min shards capacity in
  {
    shards =
      Array.init shards (fun i ->
          (* distribute the bound exactly: shard capacities sum to
             [capacity], each >= 1 *)
          let cap = (capacity / shards) + (if i < capacity mod shards then 1 else 0) in
          {
            lock = Mutex.create ();
            tbl = Tbl.create (min 4096 (max 16 cap));
            fifo = Queue.create ();
            shard_capacity = cap;
          });
    capacity;
    entries = Atomic.make 0;
    lookups = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    insertions = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let capacity t = t.capacity

let shard_of t key = t.shards.(Key.hash key mod Array.length t.shards)

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

type scope = { s_t : t; s_fp : string }

let scope t ~fingerprint = { s_t = t; s_fp = fingerprint }
let narrow s tag = { s with s_fp = s.s_fp ^ "|" ^ tag }
let scope_equal a b = a.s_t == b.s_t && String.equal a.s_fp b.s_fp

let find scope cells =
  let t = scope.s_t in
  let key = { Key.fp = scope.s_fp; cells } in
  let s = shard_of t key in
  Atomic.incr t.lookups;
  Obs.incr c_lookups;
  let hit =
    with_lock s.lock (fun () ->
        match Tbl.find_opt s.tbl key with
        | Some e ->
            e.referenced <- true;
            Some e.value
        | None -> None)
  in
  (match hit with
  | Some _ ->
      Atomic.incr t.hits;
      Obs.incr c_hits
  | None ->
      Atomic.incr t.misses;
      Obs.incr c_misses);
  hit

(* The CLOCK victim scan.  Shard lock held.  Terminates: every
   recycled key has its bit cleared, so at most one full FIFO lap
   passes before an unreferenced key surfaces.  The FIFO always covers
   the table (inserts push, only evictions pop), so an empty FIFO
   means an empty table; the [None] arm is pure defense against that
   invariant ever breaking — drop everything rather than spin. *)
let rec evict_one t s =
  match Queue.take_opt s.fifo with
  | None ->
      let n = Tbl.length s.tbl in
      Tbl.reset s.tbl;
      ignore (Atomic.fetch_and_add t.entries (-n) : int)
  | Some k -> (
      match Tbl.find_opt s.tbl k with
      | Some e when e.referenced ->
          e.referenced <- false;
          Queue.push k s.fifo;
          evict_one t s
      | Some _ ->
          Tbl.remove s.tbl k;
          Atomic.decr t.entries;
          Atomic.incr t.evictions;
          Obs.incr c_evictions
      | None -> evict_one t s (* unreachable: see the invariant above *))

let add scope cells value =
  let t = scope.s_t in
  let key = { Key.fp = scope.s_fp; cells } in
  let s = shard_of t key in
  with_lock s.lock (fun () ->
      if not (Tbl.mem s.tbl key) then begin
        while Tbl.length s.tbl >= s.shard_capacity do
          evict_one t s
        done;
        Tbl.replace s.tbl key { value; referenced = false };
        Queue.push key s.fifo;
        Atomic.incr t.entries;
        Atomic.incr t.insertions;
        Obs.incr c_insertions;
        Obs.gauge_max g_entries (Atomic.get t.entries)
      end)

let entries t = Atomic.get t.entries

let stats t =
  {
    st_entries = Atomic.get t.entries;
    st_capacity = t.capacity;
    st_lookups = Atomic.get t.lookups;
    st_hits = Atomic.get t.hits;
    st_misses = Atomic.get t.misses;
    st_insertions = Atomic.get t.insertions;
    st_evictions = Atomic.get t.evictions;
  }
