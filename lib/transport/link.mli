(** Transport abstraction: the metadata system "does not predicate the
    use of specific data delivery mechanisms". Everything above this
    interface works over any duplex byte-message link. *)

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
(** Raises {!Closed} instead of returning [None]. *)
