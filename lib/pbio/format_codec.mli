(** Binary serialisation of format descriptors — sent once per
    (connection, format) during negotiation, so that each message
    carries only its 4-byte format id ({!Wire}). Records the sender's
    ABI fingerprint and physical layout plus the logical declaration,
    nested formats embedded recursively. Decoding cross-checks the
    transmitted offsets against a recomputation under the reconstructed
    ABI, so corrupt descriptors are rejected rather than mis-read.

    The magic ["OMD2"] is the layout version of the protocol, checked
    once per connection at its first descriptor: a descriptor of another
    version, such as the ["OMFD"] one that went with 24-byte message
    headers, is refused with [Bad_magic]. *)

val encode : Format.t -> string

val decode : string -> Format.t
(** Raises only [Omf_util.Decode.Error] (layer ["descriptor"]) on
    malformed input: a truncated blob, a bad magic, an unknown tag or
    ABI, an unreasonable count, or a declaration that does not resolve
    or lays out differently from what it records ([Inconsistent]). *)
