(** Length-prefixed frame codec with incremental reassembly.

    The TCP framing (PROTOCOLS.md section 5) is a 4-byte big-endian
    length followed by the frame body. {!Tcp} reads it with blocking
    reads; an event-loop server ({!Omf_relay}) gets arbitrary chunks
    from non-blocking sockets and reassembles frames across partial
    reads with {!Decoder}. *)

val header_length : int
(** 4 — the big-endian length prefix. *)

val write_header : Bytes.t -> int -> int -> unit
(** [write_header buf off len] writes the 4-byte prefix at [off]. *)

val read_header : Bytes.t -> int -> int
(** [read_header buf off] reads the 4-byte prefix at [off], the one
    check of a frame's length: above 2^30 (1 GiB), it raises
    [Omf_util.Decode.Error] (layer ["frame"], offset 0, [Too_long]). *)

val encode : Bytes.t -> Bytes.t
(** [encode body] is header + body in one buffer (one socket write).
    Copies the body; the zero-copy path is [Conn.send_body], which
    writes the header into a buffer its queue entry owns. *)

module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t chunk off len] appends raw socket bytes. *)

  val has_frame : t -> bool
  (** Whether a complete frame body has arrived. An over-long length
      header raises {!read_header}'s error: the connection is
      unrecoverable. *)

  val pop : t -> Omf_util.Slice.t
  (** A view of the next complete frame body, which {!has_frame} found
      ([Invalid_argument] if there is none). The view borrows the
      decoder's buffer: it is valid until the next {!feed} or
      {!rehome}, and whoever keeps it longer copies it first. Several
      views popped between two feeds are all valid together. Nothing
      but the view is allocated. *)

  val rehome : t -> unit
  (** Move the unconsumed backlog to a fresh buffer: views already
      popped stay valid for as long as anyone holds them (a connection
      leaving its loop while other connections still hold its views). *)

  val pending_bytes : t -> int
  (** Buffered bytes not yet returned as frames. *)
end
