(** XML as a wire format (XML-RPC style): the text baseline the paper
    argues against for high-performance exchange. One element per field;
    arrays repeat the element; dynamic-array control fields are implied
    by repetition and not transmitted; chars travel as character codes,
    floats as round-trip decimal. *)

open Omf_machine
open Omf_pbio

val encode_value : Format.t -> Value.t -> string
(** Raises {!Omf_pbio.Value.Type_error} for a value that does not fit
    the format. *)

val decode_value : Format.t -> string -> Value.t
(** The record as {!Native.load} returns it: a {!Value.Struct} under the
    format's names, every float array one [Floats], each control field
    its arrays' repetition count. Raises only [Omf_util.Decode.Error]
    (layer ["xml"], offset 0) on unparsable or schema-mismatched text,
    [Inconsistent] among them for arrays that share one control but
    repeat a different number of times. *)

val encode : Memory.t -> Format.t -> int -> string
(** Full sender-side cost: read native binary data, convert to markup. *)

val decode : Format.t -> Memory.t -> string -> int
(** Full receiver-side cost: parse markup, re-binarise, materialise the
    native struct; returns its address. *)
