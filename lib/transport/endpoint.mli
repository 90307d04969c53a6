(** Endpoints: PBIO format negotiation over any {!Link.t}. A sender
    announces each format once per connection (descriptor frame) before
    its first data message, and again if a different format takes its
    id; per-message metadata is then just the 4-byte format id in the
    NDR header. *)

open Omf_machine
open Omf_pbio

module Sender : sig
  type t

  val create : Link.t -> Memory.t -> t
  (** {!send_value} binds each value into the memory, reset per call. *)

  val announce : t -> Format.t -> unit
  (** Sends the descriptor once per format per connection, and again
      when a different format arrives under an announced id. *)

  val send : t -> Memory.t -> Format.t -> int -> unit
  (** [send t mem fmt addr] announces [fmt] if needed, then sends the
      struct at [addr] of [mem] as one message frame. The frame is
      built behind its kind byte in the memory's lent buffer
      ({!Omf_pbio.Pbio.message}[ ~kind]), so nothing is copied and,
      while lengths repeat, nothing is allocated. *)

  val send_value : t -> Format.t -> Value.t -> unit
  (** Binds the value into the sender's memory and sends it as {!send}
      does. *)
end

module Receiver : sig
  type t

  val create : Link.t -> Format.Registry.t -> Memory.t -> t

  val of_pbio : Pbio.Receiver.t -> Link.t -> t
  (** An endpoint reading [link] into an existing receiver: formats it
      learned on an earlier link stay learned, and a byte-identical
      descriptor replayed on this one is a no-op. *)

  val recv : t -> (Format.t * int) option
  (** Process frames until a data message arrives (descriptor frames are
      ingested transparently); [None] when the link closes. A frame
      that fails to decode raises only [Omf_util.Decode.Error] (layer
      ["endpoint"] for an empty frame or an unknown kind); a sound
      message the registry cannot take, {!Omf_pbio.Pbio.Unknown_format}
      or {!Omf_pbio.Convert.Field_mismatch}. *)

  val recv_value : t -> (Format.t * Value.t) option
  (** {!recv}, then the message loaded as a value, after which the
      receiver's memory is reset (it stays one message large): the
      addresses an earlier {!recv} returned are invalid from then on. *)
end
