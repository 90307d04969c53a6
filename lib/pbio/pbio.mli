(** PBIO-style binary communication mechanism: public facade.

    The flow mirrors the paper's decomposition: {b discovery} happens
    above this library (xml2wire or compiled-in declarations);
    {b binding} is {!Format.Registry.register} + {!Native.store};
    {b marshaling} is {!message} on the way out and {!Receiver.receive}
    on the way in — NDR with receiver-side conversion compiled per
    format pair. *)

open Omf_machine
module Value = Value
module Ftype = Ftype
module Format = Format
module Registry = Format.Registry
module Native = Native
module Encode = Encode
module Convert = Convert
module Wire = Wire
module Format_codec = Format_codec

exception Unknown_format of string

val message : ?kind:char -> Memory.t -> Format.t -> int -> bytes
(** Marshal the struct at the given address: the format's 4-byte id
    ({!Wire}) then the NDR payload. The sender performs no data
    conversion. [?kind]
    puts one byte in front of the message, in the same buffer: an
    endpoint's frame kind, so framing needs no copy.

    The message is lent, not given: it is the memory's output buffer
    ({!Omf_machine.Memory.out_buffer}), valid until the next [message]
    on the same memory, which overwrites it (or, for a different
    length, replaces it). While lengths repeat — a stream of
    fixed-size records — a call allocates nothing. A caller that keeps
    a message past the next [message] on that memory copies it. *)

val message_of_value : Abi.t -> Format.t -> Value.t -> bytes
(** One-shot convenience (scratch memory). The message is the
    caller's to keep: its memory is not reused. *)

(** A receiver corresponds to one incoming connection (or journal): it
    learns peer formats from negotiation descriptors, caches conversion
    plans, and materialises incoming messages in its process memory. *)
module Receiver : sig
  (** Operational counters, for monitoring and tests. *)
  type stats = {
    mutable messages : int;
    mutable bytes : int;  (** payload bytes received *)
    mutable formats_learned : int;
    mutable plans_compiled : int;
  }

  type t

  val create : Registry.t -> Memory.t -> t

  val memory : t -> Memory.t
  val stats : t -> stats

  val learn : t -> string -> Format.t
  (** Ingest a format descriptor, keyed by its embedded id (the
      per-connection negotiation). Learning the blob already known under
      that id does nothing — [formats_learned] does not rise and the
      cached plan stays; a different blob replaces the format and drops
      its plan. A malformed blob raises only [Omf_util.Decode.Error]
      ({!Format_codec.decode}). *)

  val receive : ?off:int -> t -> bytes -> Format.t * int
  (** Demarshal the framed message at [off] (default 0; it runs to the
      end of the buffer) into the receiver's memory; returns the native
      format and struct address. The message is the 4-byte format id
      and the NDR payload, which runs to the end of the buffer: the
      frame's length is the payload's, and the plan bounds-checks every
      reference into it. The payload is converted where it lies, so a
      link frame carrying a kind byte before the message needs no copy.
      Allocates only the pair it returns.

      Raises [Omf_util.Decode.Error] for a malformed message
      ({!Wire.format_id}, {!Convert.run_sub}) and when no descriptor
      announced its format id (layer ["wire"], [Inconsistent] at 0: the
      peer broke the protocol),
      {!Unknown_format} when the receiver's registry has no format of
      the announced name, and {!Convert.Field_mismatch} when it has one
      that cannot be converted to. *)

  val receive_value : t -> bytes -> Format.t * Value.t
end
