(** XDR (RFC 1014) codec: the "commercial platform" baseline. Both sides
    convert: the sender translates native bytes into the canonical
    big-endian 4-byte-unit form, the receiver translates back. Assumes
    both parties compiled the same interface declaration (classic stub
    model): no negotiation, no format evolution.

    Era-faithful mapping: char/short/int/long → 4-byte big-endian;
    long long → 8; float/double → IEEE 4/8; string → u32 length + bytes +
    pad4; char[N] → opaque fixed; T[count] → u32 count + elements. *)

open Omf_machine
open Omf_pbio

val encode : Memory.t -> Format.t -> int -> bytes
(** Sender-side conversion: native struct → canonical XDR. Raises
    {!Omf_pbio.Encode.Encode_error} for a dynamic array with a count
    and no data. *)

val decode : Format.t -> Memory.t -> bytes -> int
(** Receiver-side conversion: parse XDR into a fresh native struct;
    returns its address. Raises only [Omf_util.Decode.Error] (layer
    ["xdr"]): [Truncated] data, an array count longer than the rest
    ([Too_long]), and [Inconsistent] for trailing bytes or a control
    field that disagrees with its array's own count. *)

val encode_value : Abi.t -> Format.t -> Value.t -> bytes
val decode_value : Abi.t -> Format.t -> bytes -> Value.t
