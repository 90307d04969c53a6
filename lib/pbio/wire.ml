(** Message framing: the compact meta-information that accompanies every
    NDR payload. The header identifies the format (by registry id) and the
    sender's ABI fingerprint; everything else about the format travels
    once, out of band, via {!Format_codec} (format negotiation). Header
    integers are big-endian, independent of either party's byte order. *)

open Omf_machine
module Decode = Omf_util.Decode

let magic = "OMF1"
let version = 1
let header_length = 24

let u32 b off = Endian.read_offset Endian.Big b ~off ~size:4

(* Validates magic and version in place, for the header at [off]. *)
let check_prefix (b : bytes) ~off =
  Decode.need "wire" ~base:off ~stop:(Bytes.length b) off header_length;
  if not (Bytes.get b off = magic.[0] && Bytes.get b (off + 1) = magic.[1]
          && Bytes.get b (off + 2) = magic.[2] && Bytes.get b (off + 3) = magic.[3])
  then Decode.(fail "wire" 0 Bad_magic);
  if Char.code (Bytes.get b (off + 4)) <> version then
    Decode.(fail "wire" 4 Bad_magic)

(** [put_header fmt ~payload_length b ~off] writes the header for a
    [payload_length]-byte NDR payload of [fmt] into the {!header_length}
    bytes of [b] at [off]: the one-allocation framing path, where the
    payload is encoded straight into [b] after it. *)
let put_header (fmt : Format.t) ~payload_length (b : bytes) ~off : unit =
  Bytes.blit_string magic 0 b off 4;
  Bytes.set b (off + 4) (Char.chr version);
  Bytes.set b (off + 5) '\000';
  Abi.blit_fingerprint fmt.Format.abi b ~off:(off + 6);
  Endian.write_offset Endian.Big b ~off:(off + 12) ~size:4 fmt.Format.id;
  Endian.write_offset Endian.Big b ~off:(off + 16) ~size:4
    fmt.Format.layout.Layout.size;
  Endian.write_offset Endian.Big b ~off:(off + 20) ~size:4 payload_length

(** [format_id ?off msg] checks the framed message at [msg.[off ..]]
    (default 0, to the end of [msg]) in place and returns its format
    id. The payload is [msg.[off + header_length ..]]; nothing is
    copied. *)
let format_id ?(off = 0) (msg : bytes) : int =
  check_prefix msg ~off;
  let pay = off + header_length and plen = u32 msg (off + 20) in
  let stop = Bytes.length msg in
  Decode.need "wire" ~base:off ~stop pay plen;
  if stop - pay <> plen then
    Decode.(fail "wire" (stop - off) Inconsistent);
  u32 msg (off + 12)
