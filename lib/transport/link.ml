(** Transport abstraction.

    The paper insists that the metadata system "does not predicate the use
    of specific data delivery mechanisms"; everything above this interface
    (endpoints, the event backbone) works over any duplex byte-message
    link: the deterministic in-process {!Netsim} (at zero cost,
    {!Netsim.loopback}, or priced for latency experiments) or real TCP
    sockets ({!Tcp}). *)

type t = {
  send : bytes -> unit;
  recv : unit -> bytes option;  (** [None] = link closed and drained *)
  close : unit -> unit;
}

exception Closed

exception Timeout
(** A deadline-carrying link (over a socket from {!Tcp.dial} with
    [?io_timeout_s]) raises this when a send or receive exceeds its
    deadline. The link may be in the middle of a frame: treat it as
    broken and close it. *)

let send t msg = t.send msg
let recv t = t.recv ()
let close t = t.close ()

(** [recv_exn t] raises {!Closed} instead of returning [None]. *)
let recv_exn t =
  match t.recv () with Some m -> m | None -> raise Closed
