(** Real TCP transport: length-prefixed byte messages over Unix sockets,
    satisfying {!Link.t}, and the one client dial path ({!dial}).
    Simulations and benchmarks prefer {!Netsim} for determinism. *)

exception Tcp_error of string
(** A failed dial ({!dial}). *)

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read], with an expired [SO_RCVTIMEO] deadline raised as
    {!Link.Timeout}. *)

val really_read : Unix.file_descr -> bytes -> int -> int -> unit
(** Read exactly [len] bytes to [off]; [End_of_file] when the peer
    closes first. Deadlines as {!read}. *)

val really_write : Unix.file_descr -> bytes -> int -> int -> unit
(** Write all [len] bytes from [off]; an expired [SO_SNDTIMEO] deadline
    raises {!Link.Timeout}. *)

type comp_totals = { mutable raw_bytes : int; mutable wire_bytes : int }
(** Bytes through a compressed link, both directions: frame bodies
    before compression vs blocks on the wire. *)

val link_of_fd :
  ?mac:Macframe.state -> ?comp:comp_totals -> Unix.file_descr -> Link.t
(** Wrap a connected socket, the one client framing function, and set
    [TCP_NODELAY] on it, so small frames never wait out the peer's
    delayed ACK. The optional arguments are the connection's negotiated
    modes (PROTOCOLS.md §12 and §18): with [mac] every frame is sealed
    on send and verified on receive; with [comp] every frame travels as
    one LZ block, counted into the totals; with both, the wire body is
    seal (compress body). A send builds the whole frame in one
    grow-only buffer (the block compressed and the MAC computed in
    place) and issues one write; it allocates nothing. A receive reads
    exactly one frame, never past it, and lends the body it returns
    ({!Link.t}): the link keeps one receive buffer of the last body's
    exact length and reuses it while lengths repeat, so a stream of
    fixed-size records allocates nothing per frame (the [Some] around
    the buffer is kept with it), and a body of a new length allocates
    one buffer, then kept. The body is valid until the
    next receive on the link; a caller that keeps it longer copies it.
    A plain body is read straight into that buffer; a sealed one is
    read into a second grow-only buffer, verified in place and copied
    out; a compressed block is decoded into it once its header is
    checked. One thread may
    send while another receives; two concurrent sends, or two
    concurrent receives, are not supported. An over-long length
    prefix, a forged frame or a corrupt block raises
    [Omf_util.Decode.Error]; close the link then. On a
    socket from {!dial} with [io_timeout_s], a stalled send or receive
    raises {!Link.Timeout}. *)

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

val set_io_timeout : Unix.file_descr -> float -> unit
(** Re-arm [fd]'s send/receive deadlines as {!dial}'s [io_timeout_s]
    does; [0.0] clears them. *)

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
    or timed-out link, a failed dial, a frame that failed to decode
    ([Omf_util.Decode.Error]: over-long, unauthenticated, corrupt), or
    a failed socket call; [None] for anything else. *)
