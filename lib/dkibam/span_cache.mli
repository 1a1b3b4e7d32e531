(** A small cache of {!Kernel.serve} outcomes, for searches that serve
    the same battery states under the same schedules again and again.

    A span is one {!Kernel.serve} call: a cell [(n, m, clock)] served
    under a fixed schedule [(ct, cur, draws, rest)].  Its outcome — the
    cell after the span and the fatal-draw index — is a pure function
    of those seven integers and the discretization, so a hit returns
    exactly what the call would.  The receding-horizon planner's windows
    re-serve the battery states the previous decision's window already
    served (doc/PLANNING.md, "The window search"), and a 50-draw span
    costs far more than a lookup (doc/PERFORMANCE.md §horizon).

    The cache is direct-mapped: {!slots} slots, each holding one key and
    its outcome, and a new key evicts whatever shared its slot.  It
    serves one discretization at a time, compared by physical equality.
    There is one per domain ({!for_domain}), so domains never share
    one and no lock is taken. *)

type t

val slots : int
(** 1,024 slots of eleven ints each: about 88 KiB per domain. *)

val for_domain : Discretization.t -> t
(** The calling domain's cache, emptied first if it last served another
    discretization. *)

val disc : t -> Discretization.t
(** The discretization the cache serves. *)

val serve :
  t -> Kernel.cell -> ct:int -> cur:int -> draws:int -> rest:int -> int
(** [serve t c ~ct ~cur ~draws ~rest] is
    [Kernel.serve (disc t) c ~ct ~cur ~draws ~rest]: the same result
    and the same cell afterwards, read from the cache on a hit.  A
    call that raises raises as {!Kernel.serve} does and stores
    nothing. *)

val hits : t -> int
(** Spans answered from the cache since the domain's cache was made. *)

val misses : t -> int
(** Spans that called the kernel (and were stored), likewise. *)

val slot : ct:int -> cur:int -> draws:int -> rest:int -> Kernel.cell -> int
(** The slot a key maps to, in [0 .. slots - 1]; exposed so tests can
    build colliding keys. *)
