type reason =
  | Truncated
  | Too_long
  | Bad_magic
  | Bad_tag
  | Bad_mac
  | Replayed
  | Inconsistent

exception Error of { layer : string; offset : int; reason : reason }

let fail layer offset reason = raise (Error { layer; offset; reason })

let message layer offset reason =
  Printf.sprintf "%s: %s at byte %d" layer
    (match reason with
    | Truncated -> "truncated"
    | Too_long -> "too long"
    | Bad_magic -> "bad magic or version"
    | Bad_tag -> "bad tag"
    | Bad_mac -> "bad MAC"
    | Replayed -> "replayed or dropped nonce"
    | Inconsistent -> "inconsistent")
    offset

let () =
  Printexc.register_printer (function
    | Error { layer; offset; reason } -> Some (message layer offset reason)
    | _ -> None)

let need layer ~base ~stop pos n =
  if pos < base || n < 0 || pos > stop - n then fail layer (pos - base) Truncated

(* [base] is offset 0; [stop] is one past the last readable byte *)
type cursor = { layer : string; buf : Bytes.t; base : int; stop : int; mutable pos : int }

let cursor layer buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Decode.cursor: window escapes the buffer";
  { layer; buf; base = off; stop = off + len; pos = off }

let buffer c = c.buf
let offset c = c.pos - c.base
let remaining c = c.stop - c.pos

let take c n =
  need c.layer ~base:c.base ~stop:c.stop c.pos n;
  c.pos <- c.pos + n;
  c.pos - n

let u8 c = Char.code (Bytes.get c.buf (take c 1))
let u32 c = Int32.to_int (Bytes.get_int32_be c.buf (take c 4)) land 0xFFFF_FFFF
let string c n = Bytes.sub_string c.buf (take c n) n
let fail_at c reason = fail c.layer (offset c) reason
