(** Message framing: the compact meta-information that accompanies every
    NDR payload. The header identifies the format (by registry id) and the
    sender's ABI fingerprint; everything else about the format travels
    once, out of band, via {!Format_codec} (format negotiation). Header
    integers are big-endian, independent of either party's byte order. *)

open Omf_machine

exception Frame_error of string

let frame_error fmt = Printf.ksprintf (fun s -> raise (Frame_error s)) fmt

let magic = "OMF1"
let version = 1
let header_length = 24

type header = {
  abi_fingerprint : string;  (** 6 bytes, see {!Abi.fingerprint} *)
  format_id : int;
  base_size : int;  (** size of the base struct within the payload *)
  payload_length : int;
}

(* Everything but the ABI fingerprint (bytes 6..11), for the header
   at [off]. *)
let put_fields ?(off = 0) b ~format_id ~base_size ~payload_length =
  Bytes.blit_string magic 0 b off 4;
  Bytes.set b (off + 4) (Char.chr version);
  Bytes.set b (off + 5) '\000';
  Endian.write_offset Endian.Big b ~off:(off + 12) ~size:4 format_id;
  Endian.write_offset Endian.Big b ~off:(off + 16) ~size:4 base_size;
  Endian.write_offset Endian.Big b ~off:(off + 20) ~size:4 payload_length

let write_header (h : header) : bytes =
  let b = Bytes.create header_length in
  put_fields b ~format_id:h.format_id ~base_size:h.base_size
    ~payload_length:h.payload_length;
  Bytes.blit_string h.abi_fingerprint 0 b 6 Abi.fingerprint_length;
  b

let u32 b off = Endian.read_offset Endian.Big b ~off ~size:4

(* Validates magic and version in place, for the header at [off]. *)
let check_prefix (b : bytes) ~off =
  if Bytes.length b - off < header_length then
    frame_error "truncated header: %d bytes" (Bytes.length b - off);
  if not (Bytes.get b off = magic.[0] && Bytes.get b (off + 1) = magic.[1]
          && Bytes.get b (off + 2) = magic.[2] && Bytes.get b (off + 3) = magic.[3])
  then frame_error "bad magic %S" (Bytes.sub_string b off 4);
  let v = Char.code (Bytes.get b (off + 4)) in
  if v <> version then frame_error "unsupported version %d" v

let read_header (b : bytes) : header =
  check_prefix b ~off:0;
  { abi_fingerprint = Bytes.sub_string b 6 Abi.fingerprint_length
  ; format_id = u32 b 12
  ; base_size = u32 b 16
  ; payload_length = u32 b 20 }

(** [put_header fmt ~payload_length b ~off] writes the header for a
    [payload_length]-byte NDR payload of [fmt] into the {!header_length}
    bytes of [b] at [off]: the one-allocation framing path, where the
    payload is encoded straight into [b] after it. *)
let put_header (fmt : Format.t) ~payload_length (b : bytes) ~off : unit =
  put_fields ~off b ~format_id:fmt.Format.id
    ~base_size:fmt.Format.layout.Layout.size ~payload_length;
  Abi.blit_fingerprint fmt.Format.abi b ~off:(off + 6)

(** [format_id ?off msg] checks the framed message at [msg.[off ..]]
    (default 0, to the end of [msg]) in place and returns its format
    id. The payload is [msg.[off + header_length ..]]; nothing is
    copied. *)
let format_id ?(off = 0) (msg : bytes) : int =
  check_prefix msg ~off;
  let payload_length = u32 msg (off + 20) in
  if Bytes.length msg - off <> header_length + payload_length then
    frame_error "message length %d does not match header (%d + %d)"
      (Bytes.length msg - off) header_length payload_length;
  u32 msg (off + 12)
