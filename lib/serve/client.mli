(** Blocking line client for the {!Server} daemon.

    Used by [batsched call], perfbench's [serve] workload and the test
    suite.  One request line out, one response line back, in order —
    the transport half of the {!Protocol} contract.  The client is
    deliberately simple (blocking I/O, one outstanding request unless
    the caller pipelines by hand): complexity belongs on the server
    side of a robustness boundary, where it is fuzzed. *)

type t

val connect : ?wait_ms:int -> string -> (t, Guard.Error.t) result
(** Connect to the daemon's socket.  [wait_ms] retries the connection
    for up to that long (25 ms steps) — for scripts that race the
    daemon's startup; default is a single attempt. *)

val connect_exn : ?wait_ms:int -> string -> t

val request : t -> string -> (string, Guard.Error.t) result
(** Send one request line (newline appended) and block for the response
    line (returned without its newline).  A server that closes the
    connection instead of answering — shed hard, crashed, draining —
    comes back as a structured error, not an exception. *)

val send_raw : t -> string -> unit
(** Write raw bytes, no framing — the fuzz suite's hostile sender. *)

val recv_line : t -> (string, Guard.Error.t) result
(** Read one response line (without its newline); [Error] on EOF. *)

val close : t -> unit
(** Idempotent. *)
