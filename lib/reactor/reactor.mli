(** A single-threaded readiness engine shared by every server stack in
    this repository (relay shards, the embedded httpd, the schema
    registry), and the one place they open their listening sockets
    ({!listener}). One reactor owns one [poll(2)] loop, built on
    interest sets, a timer wheel and a self-pipe for cross-thread
    injection; the loop never spawns threads (doc/REACTOR.md §1–3). *)

val now : unit -> float
(** Seconds on the monotonic {!Omf_util.Clock}: deadlines, timers and
    rate limits keep their spacing when the system clock steps. *)

(** The timer wheel: a binary min-heap ordered by (deadline, insertion
    seq), so two timers due at the same instant fire in the order they
    were scheduled. Cancellation is lazy. *)
module Wheel : sig
  type t
  type timer

  val create : unit -> t
  val schedule : t -> at:float -> (unit -> unit) -> timer
  val cancel : timer -> unit

  val next_deadline : t -> float option
  (** The earliest live deadline; cancelled timers at the head are
      dropped first. *)

  val fire : t -> now:float -> int
  (** Run every live timer with [deadline <= now] in (deadline, seq)
      order, each after its removal (an action may reschedule itself);
      the number fired. *)
end

type timer = Wheel.timer
type registration
type t

val create : unit -> t

val run : t -> unit
(** Loop until {!stop}: fire due timers, run injected thunks, poll,
    dispatch writes then reads, run deferred thunks. Returns with the
    injected and deferred work drained; registered fds are not closed
    (their owners do that). *)

val stop : t -> unit
(** Thread-safe: ask the loop to exit after the current round. *)

val dispose : t -> unit
(** Release the wake pipe. Call only after {!run} has returned. *)

val inject : t -> (unit -> unit) -> unit
(** Thread-safe (and domain-safe): run a thunk on the loop thread and
    wake the loop. Not for a loop already disposed. *)

val defer : t -> (unit -> unit) -> unit
(** Loop-thread only: run a thunk after the current dispatch round. *)

val after : t -> float -> (unit -> unit) -> timer
(** [after t s action] runs [action] on the loop in [s] seconds. *)

val cancel : t -> timer -> unit

val register :
  t ->
  Unix.file_descr ->
  on_readable:(unit -> unit) ->
  on_writable:(unit -> unit) ->
  registration
(** Add [fd] with read interest on and write interest off. Raises
    [Invalid_argument] if [fd] is already registered. *)

val set_read : registration -> bool -> unit
val set_write : registration -> bool -> unit

val deregister : t -> registration -> unit
(** Idempotent; the reactor never closes fds. *)

val fd_count : t -> int
(** Registered fds. *)

val scratch : t -> Bytes.t
(** The read buffer the loop's connections share ({!Conn}). *)

val gather : t -> Bytes.t
(** The write-coalescing buffer the loop's connections share. *)

val queued_bytes : t -> int
(** Unwritten bytes queued on the connections attached to this loop. *)

val add_queued : t -> int -> unit
(** {!Conn}'s side of {!queued_bytes}: move the sum by a delta. *)

val set_on_queued : t -> (int -> unit) -> unit
(** Install the hook that sees each new {!queued_bytes} total, called
    from the {!Conn} operation that moved it. Set it once, before
    {!run}. *)

val accept_on :
  t ->
  Unix.file_descr ->
  on_error:(Unix.error -> unit) ->
  (Unix.file_descr -> unit) ->
  registration
(** [accept_on t sock ~on_error on_accept] makes the listening socket
    [sock] non-blocking and registers it: each time it is readable, the
    loop accepts until [EAGAIN] and hands each accepted socket
    (close-on-exec) to [on_accept]. [EINTR] and [ECONNABORTED] retry.
    Any other error (descriptors or memory ran out: [EMFILE], [ENFILE],
    [ENOBUFS], [ENOMEM]) is logged and passed to [on_error], and the
    listener goes unread for a fixed 100 ms, so the loop neither spins
    on a backlog it cannot take nor stops accepting for good. Deregister
    the listener before closing it. *)

exception Resolve_error of string

val resolve : string -> Unix.inet_addr
(** The IPv4 address every socket here binds or dials for a host: a
    dotted quad without a lookup, any other name through [getaddrinfo].
    Raises {!Resolve_error} for a name with no IPv4 address. *)

val listener : ?host:string -> port:int -> unit -> Unix.file_descr * int
(** Bind and listen on [host:port] (default host 127.0.0.1,
    SO_REUSEADDR, backlog 64): the socket and the port actually bound
    (useful with [~port:0]). The socket is closed if [bind] or [listen]
    raises, so a start on a busy port leaks no descriptor. *)
