(** The first NDR layout, which today's decoders refuse: descriptors
    under the magic ["OMFD"], and each message behind a 24-byte header —
    the magic ["OMF1"], version 1, a zero byte, the sender's 6-byte ABI
    fingerprint, then the format id, the base struct's size and the
    payload length as big-endian u32s. The descriptor body after the
    magic and the NDR payload after the header are today's, byte for
    byte. Tests build such input to check that it is refused, and to
    keep goldens captured over it. *)

open Omf_machine
open Omf_pbio

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF))

let descriptor (fmt : Format.t) : string =
  let blob = Format_codec.encode fmt in
  "OMFD" ^ String.sub blob 4 (String.length blob - 4)

(** [message fmt payload]: the 24-byte header, then [payload]. *)
let message (fmt : Format.t) (payload : bytes) : bytes =
  Bytes.cat
    (Bytes.of_string
       (String.concat ""
          [ "OMF1\001\000"; Abi.fingerprint fmt.Format.abi; u32 fmt.Format.id
          ; u32 (Format.struct_size fmt); u32 (Bytes.length payload) ]))
    payload
