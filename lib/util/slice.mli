(** Immutable views into shared byte buffers.

    A slice is a [(buffer, offset, length)] triple: a window onto a
    backing [Bytes.t] that is shared, never copied, by construction.
    The zero-copy frame path threads slices from socket ingress through
    fanout, store append, and the write queues — a published payload is
    materialised once and every subscriber queue holds a view of the
    same backing buffer (doc/REACTOR.md).

    Immutability is by convention, not enforcement: once a buffer has
    been wrapped in a slice that escapes (queued on a connection,
    handed to a store), the producer must not mutate it again. Fresh
    buffers per fill (segment read buffers) make this easy to honour.
    The one exception is a borrowed view of a buffer its owner reuses
    (a connection's input, {!Omf_reactor.Conn}): it is valid until the
    owner's next fill, and whoever keeps it longer copies it first. *)

type t = private {
  buf : Bytes.t;  (** backing buffer, shared *)
  off : int;  (** first byte of the view *)
  len : int;  (** view length *)
}

val make : Bytes.t -> int -> int -> t
(** [make buf off len] views [len] bytes of [buf] at [off]. Raises
    [Invalid_argument] when the window is out of bounds. *)

val of_bytes : Bytes.t -> t
(** The whole buffer as a slice, no copy. *)

val length : t -> int

val get : t -> int -> char
(** [get s i] is byte [i] of the view. Raises [Invalid_argument] out of
    bounds. *)

val sub : t -> int -> int -> t
(** [sub s off len] is a sub-view sharing the same backing buffer.
    Raises [Invalid_argument] naming the offending [off]/[len] window
    when it escapes [s] (including negative offsets and lengths). *)

val blit : t -> Bytes.t -> int -> unit
(** [blit s dst dpos] copies the viewed bytes into [dst] at [dpos]. *)

val to_bytes : t -> Bytes.t
(** A fresh copy of the viewed bytes (use to escape a borrowed
    buffer, e.g. a connection's input slice). *)

val to_string : t -> string

val equal_bytes : t -> Bytes.t -> bool
(** Byte equality against a plain buffer (tests). *)
