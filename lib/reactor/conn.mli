(** Buffered connection driver for reactor-hosted servers: one
    non-blocking socket on one {!Reactor.t}, with read reassembly, a
    bounded write queue of views, sealing at write ({!set_sealer}),
    graceful close, per-connection deadlines and {!detach}/{!adopt} to
    move a live connection between loops (relay shard handoff).
    Protocol logic stays in callbacks; the driver never interprets
    frame contents (doc/REACTOR.md §4). *)

type t

type mode =
  | Frames  (** 4-byte big-endian length prefix, reassembled frames *)
  | Chunks  (** raw reads delivered as-is (HTTP) *)

val attach :
  Reactor.t ->
  Unix.file_descr ->
  ?mode:mode ->
  on_input:(t -> Omf_util.Slice.t -> unit) ->
  on_close:(t -> string -> unit) ->
  ?on_progress:(t -> unit) ->
  ?on_decode_error:(t -> string -> unit) ->
  ?on_bytes:(t -> [ `In | `Out ] -> int -> unit) ->
  unit ->
  t
(** [attach loop fd ~on_input ~on_close ()] hosts [fd] on [loop]
    (loop-thread only). [on_input] gets each input as a slice that
    {e borrows} a buffer the connection reuses — in [Frames] mode (the
    default) a reassembled frame body viewed in the decoder's buffer,
    in [Chunks] mode each read viewed in the reactor's scratch buffer —
    valid until the read's dispatch returns. A callback copies what it
    keeps ({!Omf_util.Slice.to_bytes}) or lends it on with
    {!send_view} or {!send_body}[ ~lender]. [on_close] fires exactly
    once, with the first close reason. [on_progress] runs after a
    write made progress, [on_decode_error] on a corrupt length header
    (the connection is then doomed), [on_bytes] on every read and
    write. *)

val alive : t -> bool
(** [true] until the connection starts closing ({!doom},
    {!flush_close}, peer close, read or write error). *)

val queued : t -> int
(** Entries in the write queue. *)

val queued_droppable : t -> int
(** Droppable entries in the write queue. *)

val queued_bytes : t -> int
(** Unwritten bytes in the write queue; their sum over a loop's
    connections is {!Reactor.queued_bytes}. *)

val send : t -> Bytes.t -> unit
(** [send c body] is {!send_body} of the whole of [body], not
    droppable; [body] is shared with the queue and must not be mutated
    afterwards. *)

val send_view :
  t -> droppable:bool -> ?lender:t -> Bytes.t -> int -> int -> unit
(** [send_view c ~droppable buf off len] queues the [len] bytes of
    [buf] at [off] as-is, never sealed: a whole framed message, such as
    a relayed frame viewed together with the length header it arrived
    behind. The buffer is shared, never copied. [droppable] lets
    {!drop_oldest_droppable} shed it. With [~lender], the view may
    borrow [lender]'s input (a slice its running [on_input] was
    handed): at the end of that dispatch this connection is flushed,
    and what its socket did not take is copied into a buffer the queue
    owns. Raises [Invalid_argument] if [lender] is not dispatching
    input. It allocates nothing once the connection has written as
    many entries as it queues. *)

val send_body :
  t -> droppable:bool -> ?lender:t -> Bytes.t -> int -> int -> unit
(** [send_body c ~droppable buf off len] queues the frame body [buf,
    off, len] behind a header the queue entry owns and reuses: the
    4-byte length prefix, or, on a connection with a sealer, the
    sealer's header. The body is shared as in {!send_view}, and so is
    lending; it allocates nothing once the connection has spare
    entries. *)

val set_sealer :
  t -> header:int -> (Bytes.t -> Bytes.t -> int -> int -> unit) -> unit
(** [set_sealer c ~header seal] seals every body {!send_body} queues
    from now on (what is already queued stays plain: a plaintext
    handshake reply). The flush seals such an entry when it first
    reaches it, staging it into a gather or writing it: [seal hdr buf
    off len] writes the [header]-byte wire header of the body [buf,
    off, len], its length prefix included, into the entry's buffer
    [hdr]. Sealing runs in queue order, exactly once per entry, on the
    loop that owns the connection; {!drop_oldest_droppable} sheds no
    entry already sealed, so a shed body never takes a nonce. Raises
    [Invalid_argument] if a sealer is already set. *)

val send_raw : t -> Bytes.t -> unit
(** Queue raw bytes verbatim ([Chunks] mode: HTTP responses). Takes
    ownership of the buffer. *)

val writable : t -> unit
(** Write as much of the queue as the socket takes now — what the loop
    runs when the socket is writable. *)

val drop_oldest_droppable : t -> int
(** Drop the oldest droppable entry neither sealed nor partly written
    (the relay's [Drop_oldest] policy); the wire bytes shed, 0 when
    none. *)

val doom : t -> string -> unit
(** Stop reading, try one flush of what is queued, close after the
    current dispatch round. Idempotent; the first reason wins. *)

val flush_close : t -> unit
(** Stop reading, flush everything queued, then close. *)

val set_read_intent : t -> bool -> unit
(** Pause or resume reading (the relay's [Block] policy pauses
    publishers this way). *)

val set_deadline : t -> reason:string -> float option -> unit
(** [set_deadline c ~reason (Some s)] dooms [c] with [reason] unless
    re-armed or cleared ([None]) within [s] seconds. Re-arming cancels
    the previous timer; deadlines do not survive {!detach}. *)

val detach : t -> unit
(** Unhook from the current loop, keeping the socket, decoder backlog,
    write queue and callbacks (loop-thread only); the connection is
    inert until {!adopt}. Raises [Invalid_argument] on a connection
    that is not alive or holds borrowed slices. *)

val adopt : Reactor.t -> t -> unit
(** Re-register a detached connection on a loop, on that loop's thread
    (typically from a {!Reactor.inject} thunk); frames already buffered
    are dispatched after the current round. *)
