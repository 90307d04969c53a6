(** Transport abstraction: the metadata system "does not predicate the
    use of specific data delivery mechanisms". Everything above this
    interface works over any duplex byte-message link. *)

(** A duplex byte-message link.

    [send] takes the message for the duration of the call only: the
    caller may reuse or overwrite it once [send] returns.

    [recv] lends the message it returns: it stays valid until the next
    [recv] on the same link, which may overwrite it ({!Tcp.link_of_fd}
    reads every frame into one buffer kept per link). A caller that
    keeps a message past its next [recv] copies it. Links that hand
    out a fresh buffer per message ({!Netsim}) meet this
    contract trivially. *)
type t = {
  send : bytes -> unit;
  recv : unit -> bytes option;  (** [None] = link closed and drained *)
  close : unit -> unit;
}

exception Closed

exception Timeout
(** Raised by deadline-carrying links (over a socket from {!Tcp.dial}
    with [?io_timeout_s]) when a send or receive exceeds its deadline.
    The link may have consumed part of a frame: treat it as broken. *)

val send : t -> bytes -> unit
val recv : t -> bytes option
val close : t -> unit

val recv_exn : t -> bytes
(** Raises {!Closed} instead of returning [None]. The message is lent,
    as [recv]'s. *)
