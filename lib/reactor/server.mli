(** The listener lifecycle the registry and the HTTP server share: bind
    a list of listening sockets, accept on all of them on one reactor
    loop running on its own thread, track the accepted connections, and
    shut everything down. (The relay accepts on its first shard's loop
    and deals the sockets across its shards.) Both accept with
    {!Reactor.accept_on}. *)

type accept =
  Reactor.t -> Unix.file_descr -> on_close:(Conn.t -> string -> unit) -> Conn.t
(** How a listener hosts one accepted socket, on the loop thread:
    {!Conn.attach} it to the loop, passing [on_close] on, and return the
    connection. *)

type t

val start : (string * int * accept) list -> t
(** [start [(host, port, accept); ...]] binds every listener with
    {!Reactor.listener} ([~port:0] binds an ephemeral port), then starts
    the loop thread. If a bind raises, the listeners already bound are
    closed and the exception is re-raised (a [Unix.Unix_error] with
    ["HOST:PORT"] of the failed listener as its argument); no loop or
    thread is left behind. *)

val ports : t -> int list
(** The ports actually bound, in the order of the listeners. *)

val shutdown : t -> unit
(** Stop accepting, doom every accepted connection still open, stop
    and join the loop thread, close the listening sockets (a client
    still in a backlog is reset). Idempotent. *)
