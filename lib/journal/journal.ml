(** Binary journals: NDR messages "written to data files in a
    heterogeneous computing environment" (the second use PBIO was built
    for, section 4.1.2).

    A journal is an {!Omf_transport.Endpoint} over a file: the magic
    "OMFJRNL1", then exactly the frames a sender writes to a socket (a
    format's descriptor before its first message, then NDR messages),
    each behind a {!Omf_reactor.Frame} length prefix (doc/PROTOCOLS.md
    section 7). Because descriptors are embedded, a journal is
    self-describing: it can be replayed years later, on a machine with
    a different ABI, by a process that never talked to the writer — the
    reader converts exactly as a live receiver would. *)

open Omf_machine
open Omf_pbio
module Endpoint = Omf_transport.Endpoint
module Frame = Omf_reactor.Frame
module Link = Omf_transport.Link
module Decode = Omf_util.Decode

let magic = "OMFJRNL1"

module Writer = struct
  type t = {
    sender : Endpoint.Sender.t;
    records : int ref;  (** frames the file link wrote *)
  }

  let to_file (path : string) : t * (unit -> unit) =
    let oc = open_out_bin path in
    output_string oc magic;
    let hdr = Bytes.create Frame.header_length and records = ref 0 in
    let send body =
      Frame.write_header hdr 0 (Bytes.length body);
      output_bytes oc hdr;
      output_bytes oc body;
      incr records
    in
    let close () = close_out oc in
    let link = { Link.send; recv = (fun () -> None); close } in
    (* the sender's own memory stays empty: [append] sends each struct
       from its caller's memory *)
    ( { sender = Endpoint.Sender.create link (Memory.create Abi.native)
      ; records }
    , close )

  (** [append t mem fmt addr] writes the struct at [addr], preceded by
      [fmt]'s descriptor unless this journal already holds it. *)
  let append (t : t) (mem : Memory.t) (fmt : Format.t) (addr : int) : unit =
    Endpoint.Sender.send t.sender mem fmt addr

  let record_count t = !(t.records)
end

module Reader = struct
  type t = {
    endpoint : Endpoint.Receiver.t;
    at : int ref;  (** byte offset of the frame the file link read last *)
  }

  (* One frame per [recv], lent as a TCP link lends it (exact length,
     reused while lengths repeat). Only EOF at a frame boundary ends the
     journal. *)
  let link ic at : Link.t =
    let hdr = Bytes.create Frame.header_length and lent = ref Bytes.empty in
    let size = in_channel_length ic in
    let recv () =
      at := pos_in ic;
      match input ic hdr 0 Frame.header_length with
      | 0 -> None
      | n ->
        (try really_input ic hdr n (Frame.header_length - n)
         with End_of_file -> Decode.fail "journal" 0 Truncated);
        let len = Frame.read_header hdr 0 in
        if len > size - pos_in ic then Decode.fail "journal" 0 Truncated;
        if Bytes.length !lent <> len then lent := Bytes.create len;
        (try really_input ic !lent 0 len
         with End_of_file -> Decode.fail "journal" 0 Truncated);
        Some !lent
    in
    { Link.send = ignore; recv; close = (fun () -> close_in ic) }

  let of_file (path : string) (registry : Format.Registry.t)
      (mem : Memory.t) : t * (unit -> unit) =
    let ic = open_in_bin path in
    match really_input_string ic (String.length magic) with
    | m when String.equal m magic ->
      let at = ref 0 in
      ( { endpoint = Endpoint.Receiver.create (link ic at) registry mem; at }
      , fun () -> close_in ic )
    | _ ->
      close_in_noerr ic;
      Decode.fail "journal" 0 Bad_magic
    | exception End_of_file ->
      close_in_noerr ic;
      Decode.fail "journal" 0 Truncated

  (** [next_value t] is the endpoint's next message as a value; the
      reader's memory is reset after each one. A [Decode.Error] gets the
      frame's byte offset in the file. *)
  let next_value (t : t) : (Format.t * Value.t) option =
    try Endpoint.Receiver.recv_value t.endpoint
    with Decode.Error { layer; reason; _ } ->
      raise (Decode.Error { layer; offset = !(t.at); reason })

  (** [fold t f acc] replays the whole journal. *)
  let fold (t : t) (f : 'a -> Format.t * Value.t -> 'a) (acc : 'a) : 'a =
    let rec go acc =
      match next_value t with None -> acc | Some ev -> go (f acc ev)
    in
    go acc
end
