(** NDR (Natural Data Representation) encoding: the payload is the
    sender's struct base image (padding included) followed by the
    transitive closure of its heap blocks, with pointer slots rewritten
    to payload-relative offsets in the sender's own pointer width and
    byte order. The sender converts nothing. Encoding sizes the payload
    first ({!length}), then emits it into a caller-allocated buffer
    ({!emit}); nothing else is allocated. *)

open Omf_machine

exception Encode_error of string

val length : Memory.t -> Format.t -> int -> int
(** Length of the NDR payload of the struct at the given address. *)

val emit : Memory.t -> Format.t -> int -> bytes -> off:int -> unit
(** [emit mem fmt addr buf ~off] writes that payload into [buf] from
    [off]: exactly [length mem fmt addr] bytes. Allocates nothing; the
    framing path allocates one buffer for header and payload and emits
    into it. *)

val payload : Memory.t -> Format.t -> int -> bytes
(** Encode the struct at the given address (no header; see {!Wire}).
    Raises {!Encode_error} if the memory's ABI does not match the
    format's, or on inconsistent dynamic-array state. *)

val payload_of_value : Abi.t -> Format.t -> Value.t -> bytes
(** One-shot convenience (scratch memory) for tests and examples. *)
