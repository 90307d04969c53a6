(** Real TCP transport: length-prefixed byte messages over Unix sockets,
    satisfying {!Link.t}. Simulations and benchmarks prefer {!Loopback} /
    {!Netsim} for determinism. *)

exception Tcp_error of string

val link_of_fd : ?io_timeout_s:float -> Unix.file_descr -> Link.t
(** Wrap a connected socket and set [TCP_NODELAY] on it, so small frames
    never wait out the peer's delayed ACK. [io_timeout_s] arms per-operation
    send/receive deadlines ([SO_RCVTIMEO]/[SO_SNDTIMEO]): an operation
    that stalls past the deadline raises {!Link.Timeout} and the link
    should be treated as broken. *)

val listener :
  ?host:string -> ?backlog:int -> port:int -> unit -> Unix.file_descr * int
(** Bind and listen without spawning any thread — for callers running
    their own accept/event loop ({!Omf_relay}). Returns the listening
    socket and the actually bound port (useful with [~port:0]). *)

type server
(** A running {!serve} instance with a proper stop handle (the old
    [listen] leaked its acceptor and per-connection threads). *)

val serve :
  ?host:string -> ?backlog:int -> port:int -> (Link.t -> unit) -> server
(** Accept connections until {!shutdown}, running the handler with a
    blocking {!Link.t} in a thread per connection; the link is closed
    when the handler returns. The acceptor is a reactor loop, not a
    blocking thread. [~port:0] binds an ephemeral port — read it with
    {!server_port}. *)

val server_port : server -> int

val shutdown : server -> unit
(** Stop accepting, join the acceptor and every in-flight handler
    thread (a handler that never returns will block this). Idempotent. *)

val connect :
  ?host:string ->
  port:int ->
  ?connect_timeout_s:float ->
  ?io_timeout_s:float ->
  unit ->
  Link.t
(** Raises {!Tcp_error} on failure (including a connect that exceeds
    [connect_timeout_s]). [io_timeout_s] as in {!link_of_fd}. *)
