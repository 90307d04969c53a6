(** Endpoints: PBIO format negotiation over any {!Link.t}.

    The wire protocol has two frame kinds. A sender announces each format
    once per connection before its first use (frame [D] carrying the
    {!Omf_pbio.Format_codec} descriptor), and again if a different
    format arrives under an id it announced; data messages (frame [M])
    then carry only the compact NDR framing. This is the "efficiently
    represented meta-information" of the paper: per-message metadata cost
    is a 4-byte format id, not a re-transmitted description. *)

open Omf_machine
open Omf_pbio

let frame_descriptor = 'D'
let frame_message = 'M'

(* ------------------------------------------------------------------ *)
(* Sending endpoint                                                     *)
(* ------------------------------------------------------------------ *)

module Sender = struct
  type t = {
    link : Link.t;
    mem : Memory.t;  (** where {!send_value} binds each value *)
    announced : (int, Format.t) Hashtbl.t;
        (** format id -> the format last announced under it *)
  }

  let create (link : Link.t) (mem : Memory.t) : t =
    { link; mem; announced = Hashtbl.create 8 }

  (* Ids restart at 1 in every registry, so an id alone does not name a
     format: a different format under an announced id is announced
     again. The hit path is a lookup and a physical compare. *)
  let announce t (fmt : Format.t) =
    match Hashtbl.find t.announced fmt.Format.id with
    | known when known == fmt -> ()
    | _ | (exception Not_found) ->
      Link.send t.link
        (Bytes.of_string
           (String.make 1 frame_descriptor ^ Format_codec.encode fmt));
      Hashtbl.replace t.announced fmt.Format.id fmt

  (** [send t mem fmt addr] negotiates [fmt] if needed and ships the
      struct at [addr] of [mem] in NDR. The frame is the message lent by
      the memory, built behind its kind byte: nothing is copied. *)
  let send (t : t) mem (fmt : Format.t) (addr : int) : unit =
    announce t fmt;
    Link.send t.link (Pbio.message ~kind:frame_message mem fmt addr)

  (** [send_value t fmt v] binds [v] into the sender's memory first,
      reset on each call, so it does not grow by a record per event. *)
  let send_value (t : t) (fmt : Format.t) (v : Value.t) : unit =
    Memory.reset t.mem;
    send t t.mem fmt (Native.store t.mem fmt v)
end

(* ------------------------------------------------------------------ *)
(* Receiving endpoint                                                   *)
(* ------------------------------------------------------------------ *)

module Receiver = struct
  type t = {
    link : Link.t;
    pbio : Pbio.Receiver.t;
  }

  let of_pbio (pbio : Pbio.Receiver.t) (link : Link.t) : t = { link; pbio }

  let create (link : Link.t) (registry : Format.Registry.t) (mem : Memory.t) :
      t =
    of_pbio (Pbio.Receiver.create registry mem) link

  (** [recv t] processes frames until a data message arrives (descriptor
      frames are ingested transparently). [None] when the link closes.
      The message is converted straight out of the frame the link
      lent, past its kind byte. *)
  let rec recv (t : t) : (Format.t * int) option =
    match Link.recv t.link with
    | None -> None
    | Some b ->
      Omf_util.Decode.need "endpoint" ~base:0 ~stop:(Bytes.length b) 0 1;
      let kind = Bytes.get b 0 in
      if Char.equal kind frame_descriptor then begin
        ignore
          (Pbio.Receiver.learn t.pbio (Bytes.sub_string b 1 (Bytes.length b - 1)));
        recv t
      end
      else if Char.equal kind frame_message then
        Some (Pbio.Receiver.receive ~off:1 t.pbio b)
      else Omf_util.Decode.(fail "endpoint" 0 Bad_tag)

  (** [recv_value t] is {!recv} lifted to a value, after which the
      receiver's memory is reset: it stays one message large however
      long the receiver lives. *)
  let recv_value (t : t) : (Format.t * Value.t) option =
    match recv t with
    | None -> None
    | Some (fmt, addr) ->
      let mem = Pbio.Receiver.memory t.pbio in
      let v = Native.load mem fmt addr in
      Memory.reset mem;
      Some (fmt, v)
end
