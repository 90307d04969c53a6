(** Message framing: the compact per-message meta-information
    accompanying every NDR payload — the magic ["OMF1"], version 1, a
    zero byte, the 6-byte ABI fingerprint, then the format id, the base
    struct's size and the payload length as big-endian u32s, whatever
    either party's byte order. The format id is the sender's own
    registry id: the receiver learns what it names from the descriptor
    negotiated once per connection ({!Format_codec}). *)

val header_length : int

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
    is copied. Raises only [Omf_util.Decode.Error] (layer ["wire"],
    offsets from [off]): [Truncated] for a short header or payload,
    [Bad_magic] for a wrong magic or version, [Inconsistent] for bytes
    past the announced payload. *)
