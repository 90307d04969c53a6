(** Message framing: the compact meta-information that accompanies every
    NDR payload is the sender's format id, a big-endian u32; everything
    else about the format travels once, out of band, via {!Format_codec}
    (format negotiation). *)

open Omf_machine

let header_length = 4

(** [put_header fmt b ~off] writes [fmt]'s id into the {!header_length}
    bytes of [b] at [off]: the one-allocation framing path, where the
    payload is encoded straight into [b] after it. *)
let put_header (fmt : Format.t) (b : bytes) ~off : unit =
  Endian.write_offset Endian.Big b ~off ~size:header_length fmt.Format.id

(** [format_id ?off msg] returns the format id of the framed message at
    [msg.[off ..]] (default 0, to the end of [msg]). The payload is
    [msg.[off + header_length ..]]; nothing is copied. *)
let format_id ?(off = 0) (msg : bytes) : int =
  Omf_util.Decode.need "wire" ~base:off ~stop:(Bytes.length msg) off header_length;
  Endian.read_offset Endian.Big msg ~off ~size:header_length
