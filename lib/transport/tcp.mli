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

val dial :
  ?host:string ->
  port:int ->
  ?connect_timeout_s:float ->
  unit ->
  Unix.file_descr
(** {!connect}'s socket, before it is wrapped in a link. *)

val connect :
  ?host:string ->
  port:int ->
  ?connect_timeout_s:float ->
  ?io_timeout_s:float ->
  unit ->
  Link.t
(** Raises {!Tcp_error} on failure (including a connect that exceeds
    [connect_timeout_s]). [io_timeout_s] as in {!link_of_fd}. *)
