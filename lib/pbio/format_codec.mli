(** Binary serialisation of format descriptors — sent once per
    (connection, format) during negotiation, or registered with a format
    server. Records the sender-side physical layout plus the logical
    declaration, nested formats embedded recursively. Decoding
    cross-checks the transmitted offsets against a recomputation under
    the reconstructed ABI, so corrupt descriptors are rejected rather
    than mis-read. *)

val encode : Format.t -> string

val decode : string -> Format.t
(** Raises only [Omf_util.Decode.Error] (layer ["descriptor"]) on
    malformed input: a truncated blob, a bad magic, an unknown tag or
    ABI, an unreasonable count, or a declaration that does not resolve
    or lays out differently from what it records ([Inconsistent]). *)
