(** Message framing: the compact per-message meta-information
    accompanying every NDR payload — the sender's format id alone, a
    big-endian u32 whatever either party's byte order. The id is the
    sender's own registry id: the receiver learns what it names, the
    sender's ABI and layout, from the descriptor negotiated once per
    connection ({!Format_codec}), which also carries the layout version.
    The payload runs to the end of the frame, so the frame length is its
    length. *)

val header_length : int

val put_header : Format.t -> bytes -> off:int -> unit
(** Write the format's id into the {!header_length} bytes of the buffer
    at [off]; the caller encodes the payload straight after it. *)

val format_id : ?off:int -> bytes -> int
(** The format id of the framed message at [off] (default 0; it runs to
    the end of the buffer), read in place. The payload is the rest of
    the buffer after the {!header_length}-byte header; nothing is
    copied. Raises only [Omf_util.Decode.Error] (layer ["wire"],
    [Truncated] at 0) when fewer than {!header_length} bytes follow
    [off]. *)
