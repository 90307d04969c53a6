(** Message framing: the compact per-message meta-information
    accompanying every NDR payload (magic, version, ABI fingerprint,
    format id, sizes). The format id is the sender's own registry id:
    the receiver learns what it names from the descriptor negotiated
    once per connection ({!Format_codec}). Header integers are
    big-endian regardless of either party's byte order. *)

exception Frame_error of string

val header_length : int

type header = {
  abi_fingerprint : string;  (** see {!Omf_machine.Abi.fingerprint} *)
  format_id : int;
  base_size : int;  (** size of the base struct within the payload *)
  payload_length : int;
}

val write_header : header -> bytes
val read_header : bytes -> header

val put_header : Format.t -> payload_length:int -> bytes -> off:int -> unit
(** Write the header for a [payload_length]-byte NDR payload of the
    format into the {!header_length} bytes of the buffer at [off]; the
    caller encodes the payload straight after it. The format id is the
    sender's registry id, which the receiver learned from the
    descriptor negotiated on the connection. *)

val format_id : ?off:int -> bytes -> int
(** Check the framed message at [off] (default 0; it runs to the end of
    the buffer) in place and return its format id. The payload is the
    rest of the buffer after the {!header_length}-byte header; nothing
    is copied. Raises {!Frame_error}. *)
