(** Persistent cross-request result cache.

    Maps canonical query keys ({!Protocol.cache_key}) to serialized
    result payloads.  Only {e exact} answers are stored — degraded or
    budget-truncated results never enter the cache — so a hit replays
    the cold response byte for byte, which is what makes the daemon's
    restart warm-start bit-identical (asserted by the CI [serve-smoke]
    job and [test/test_serve.ml]'s crash replay).

    Durability rides {!Guard.Checkpoint}: every save is an atomic
    temp-file-plus-rename of a framed, checksummed snapshot, so a
    [kill -9] mid-save leaves either the previous complete snapshot or
    the new one — never a torn file.  A snapshot that fails its frame
    checks on load (truncated, wrong magic, foreign fingerprint) is
    {e cleanly discarded} — the daemon starts cold and says so — never
    trusted and never a crash.

    Bounded: [max_entries] caps the table for week-long runs, enforced
    by second-chance (CLOCK) eviction — the same scheme as
    {!Sched.Memo}.  Eviction only forgets answers: a re-queried key
    recomputes to the identical bytes (only exact answers are cached),
    so the bound never threatens the bit-identity contract — asserted
    under CHAOS_SEED randomization in [test/test_serve.ml].

    Thread-safe: every operation holds one internal mutex (hold times
    of a hashtable probe; the periodic autosave is the one long hold),
    so the daemon's worker domains may find/add concurrently.

    Observability: [serve.cache_hits] / [serve.cache_misses] /
    [serve.cache_evictions] counters, the [serve.cache_entries] gauge,
    and [guard.checkpoint_writes] for the saves themselves. *)

type t

type load_status =
  | Cold  (** no snapshot at the path (or no path configured) *)
  | Warm of int  (** snapshot loaded; the number of entries *)
  | Discarded of Guard.Error.t
      (** a snapshot existed but failed its frame checks and was
          ignored; the daemon logs the structured reason and starts
          cold *)

val create :
  ?path:string -> ?save_every:int -> ?max_entries:int -> unit -> t * load_status
(** [create ()] is a purely in-memory cache.  With [path], the snapshot
    at [path] is loaded (see {!load_status}) and every [save_every]th
    insert (default 32, must be [>= 1]) triggers an atomic save; call
    {!save} once more at shutdown to persist the tail.  [max_entries]
    (default 65536, must be [>= 1]) bounds the table; a snapshot larger
    than the bound is trimmed by the same eviction path on load. *)

val find : t -> string -> string option
(** Counts a hit or a miss. *)

val add : t -> string -> string -> unit
(** Insert (first writer wins — an existing entry is kept, so replayed
    inserts cannot flap the stored bytes). *)

val entries : t -> int
(** Always [<= max_entries]. *)

val hits : t -> int

val misses : t -> int

val lookups : t -> int
(** Exactly [hits + misses] — read under the same lock hold, so the
    identity is race-free (the counter-consistency test leans on
    it). *)

val evictions : t -> int

val save : t -> unit
(** Persist now (atomic; no-op without a [path] or when nothing changed
    since the last save). *)
