(** A process-wide, bounded, concurrent memo store for exact search
    values — the table the daemon's searches share across requests and
    worker domains.

    {!Optimal.search} and {!Optimal.plan} memoize {e exact} subtree /
    window values: integers that do not depend on exploration order,
    bound mode, budget warmth or which domain computed them.  That
    exactness (established by the bound/pool/checkpoint differential
    suites) is what makes the entries sound to share between unrelated
    searches: a hit returns the same integer a fresh recompute would
    derive, so results stay bit-identical with the store cold, warm, or
    evicted — asserted by [test/test_memo.ml].

    Entries live under a {!scope}: a fingerprint string digesting every
    search input the values depend on (load, pack, discretization,
    objective, window kind).  Two scopes with different fingerprints
    never observe each other's entries, so a shared store can serve
    searches over different loads at once.

    The store is safe for concurrent use from any number of domains
    (sharded hashtables, one mutex per shard, hold times of one probe)
    and bounded: [capacity] caps the total entry count, enforced by
    second-chance (CLOCK) eviction — an approximation of LRU with O(1)
    amortized insert cost.  Eviction only ever forgets work; a
    re-queried key is recomputed to the identical value.

    Statistics are exact even under concurrency (atomic counters;
    hits + misses = lookups once callers quiesce) and mirrored into the
    [memo.*] Obs family ([memo.lookups] / [memo.hits] / [memo.misses] /
    [memo.insertions] / [memo.evictions] counters, [memo.entries]
    high-watermark gauge); see doc/OBSERVABILITY.md. *)

type t

val create : ?shards:int -> capacity:int -> unit -> t
(** [create ~capacity ()] bounds the store at [capacity >= 1] entries
    total, spread over [shards] (default 16, clamped to [capacity])
    independently locked shards. *)

val capacity : t -> int

val entries : t -> int
(** Current entry count (exact; the eviction loop keeps it
    [<= capacity]). *)

type scope
(** A store restricted to one fingerprint: the handle search code holds.
    Cheap to build per request. *)

val scope : t -> fingerprint:string -> scope
(** Keys under [fingerprint] are disjoint from every other
    fingerprint's. The fingerprint must digest {e all} inputs the memo
    values depend on (the checkpoint-layer input fingerprint, for full
    searches). *)

val narrow : scope -> string -> scope
(** [narrow s tag]: the same store, under [s]'s fingerprint extended by
    [tag] — for a callee that keys its entries on inputs its caller's
    fingerprint does not cover, as {!Optimal.planner} narrows a scope
    by its own load.  A fixed-length [tag] (a digest) keeps two
    narrowings of different scopes disjoint. *)

val scope_equal : scope -> scope -> bool
(** Same store (physically) and same fingerprint — the test cached
    planner entries use to decide reuse. *)

val find : scope -> int array -> int option
(** Marks the entry recently-used (second-chance bit) and counts a hit
    or a miss. *)

val add : scope -> int array -> int -> unit
(** Insert, evicting second-chance victims while over capacity.
    First-writer-wins — values are exact, so concurrent writers always
    carry the same value. *)

type stats = {
  st_entries : int;
  st_capacity : int;
  st_lookups : int;
  st_hits : int;
  st_misses : int;
  st_insertions : int;
  st_evictions : int;
}

val stats : t -> stats
(** A consistent-enough snapshot: each field is atomically read;
    [st_hits + st_misses = st_lookups] holds exactly when no lookup is
    mid-flight. *)
