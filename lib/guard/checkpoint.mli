(** Atomic, framed, checksummed snapshot files.

    The persistence half of crash-safe search: {!Sched.Optimal.search}
    periodically saves its memo table here and preloads it on resume,
    and the daemon's result cache persists its snapshots here.  Every
    write is temp-file-plus-rename in the target's directory, so a
    reader never observes a torn file; every {!save} frames the payload
    with a magic string, a format version, a caller-supplied
    fingerprint of the producing inputs, an MD5 checksum and the byte
    length, so {!load} can refuse a stale or corrupt snapshot with a
    precise {!Error.t} instead of resuming from garbage.  See
    doc/ROBUSTNESS.md for the on-disk format.

    Observability: completed writes increment the
    [guard.checkpoint_writes] counter. *)

val write_atomic : path:string -> string -> unit
(** Write [contents] to [path] atomically (same-directory temp file +
    rename).  On any failure the temp file is removed and the previous
    [path] contents, if any, are untouched. *)

type load_error =
  | Missing  (** no file at the path — a fresh start, not a failure *)
  | Bad of Error.t
      (** the file exists but cannot be trusted: wrong magic or
          version, fingerprint mismatch (different inputs), truncation,
          checksum failure *)

val save : path:string -> magic:string -> fingerprint:string -> string -> unit
(** [save ~path ~magic ~fingerprint payload]: frame and write
    atomically.  [magic] and [fingerprint] must not contain spaces
    ([Invalid_argument]). *)

val load :
  path:string -> magic:string -> fingerprint:string -> (string, load_error) result
(** Read back a {!save}d payload, verifying magic, version,
    fingerprint, length and checksum. *)
