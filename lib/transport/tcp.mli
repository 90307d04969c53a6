(** Real TCP transport: length-prefixed byte messages over Unix sockets,
    satisfying {!Link.t}, and the one client dial path ({!dial}).
    Simulations and benchmarks prefer {!Loopback} / {!Netsim} for
    determinism. *)

exception Tcp_error of string

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read], with an expired [SO_RCVTIMEO] deadline raised as
    {!Link.Timeout}. *)

val really_write : Unix.file_descr -> bytes -> int -> int -> unit
(** Write all [len] bytes from [off]; an expired [SO_SNDTIMEO] deadline
    raises {!Link.Timeout}. *)

val link_of_fd : Unix.file_descr -> Link.t
(** Wrap a connected socket and set [TCP_NODELAY] on it, so small frames
    never wait out the peer's delayed ACK. On a socket from {!dial} with
    [io_timeout_s], a stalled send or receive raises {!Link.Timeout}. *)

val dial :
  ?host:string ->
  port:int ->
  ?connect_timeout_s:float ->
  ?io_timeout_s:float ->
  unit ->
  Unix.file_descr
(** Resolve [host] ({!Omf_reactor.Reactor.resolve}) and open a
    connected blocking socket: the one client dial path.
    [connect_timeout_s] bounds connection establishment; [io_timeout_s]
    arms per-operation send/receive deadlines. Raises only {!Tcp_error}
    (["connect H:P: reason"]) and closes the socket on every failure. *)

val connect :
  ?host:string ->
  port:int ->
  ?connect_timeout_s:float ->
  ?io_timeout_s:float ->
  unit ->
  Link.t
(** {!link_of_fd} over {!dial}. *)

val failure_message : exn -> string option
(** The one rule for "this exception is a transport failure", which
    every client maps its errors through: [Some message] for a closed
    or timed-out link, a failed dial, a malformed or unauthenticated
    frame, or a failed socket call; [None] for anything else. *)
