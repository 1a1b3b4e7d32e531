(** A tiny textual language for load specifications.

    Lets loads travel through CLI flags and files instead of OCaml code —
    [loadgen --spec "..."] and test fixtures use it.  Grammar (tokens are
    whitespace-separated; [;] separates items):

    {v
    spec   ::= item (';' item)*
    item   ::= 'job' AMPS MINUTES      one job epoch
             | 'idle' MINUTES          one idle epoch
             | 'repeat' N '(' spec ')' the bracketed spec, N times
             | LOADNAME                a named test load, e.g. ils_alt
    v}

    Examples:
    - ["job 0.5 1; idle 1; job 0.25 1; idle 1"] — one ILs-alt period;
    - ["repeat 40 (job 0.5 1; idle 1)"] — 80 minutes of ILs 500;
    - ["ils_alt"] — the built-in test load at its default horizon.

    Adjacent idles merge into one epoch, summed right to left.  Parsing
    is linear in the spec's length, and a spec may describe at most
    {!max_epochs} epochs: [repeat] is refused before it expands, and a
    sequence as soon as it grows past the limit, so a short spec cannot
    make the parser build a huge load.  The limit counts epochs as
    [repeat] expands them, before the idles across its copies merge:
    ["repeat 30000 (idle 1)"] is refused although it merges to one
    epoch.  The CLI's [--spec] and the daemon's ["spec"] field both
    parse here, so they refuse the same inputs with the same error. *)

exception Parse_error of string
(** Carries a human-readable message with the offending token. *)

val max_epochs : int
(** 20000: the most epochs a spec may describe. *)

val parse_result : string -> (Epoch.t, Guard.Error.t) result
(** Parse with a structured error: the spec string as the input, the
    offending field or token, its value, and the accepted shape — what
    the CLI prints (doc/ROBUSTNESS.md's error taxonomy). *)

val parse : string -> Epoch.t
(** [parse_result], raising {!Parse_error} with the rendered error on
    malformed input (compatibility entry point). *)

val to_string : Epoch.t -> string
(** Render a load back into the language ([parse (to_string l)] equals
    [l] up to idle merging). *)
