(* poll(2) for the reactor and Tcp.dial: see poll.mli and
   poll_stubs.c *)

type buf =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { buf : buf; length : int }

let readable = 1
let writable = 2
let invalid = 4

external create_buf : int -> buf = "omf_poll_create"

external set_entry : buf -> int -> Unix.file_descr -> int -> unit
  = "omf_poll_set"
[@@noalloc]

external ready_entry : buf -> int -> int = "omf_poll_ready" [@@noalloc]
external wait_buf : buf -> int -> int -> int = "omf_poll_wait"

let create n = { buf = create_buf n; length = n }

let set t i fd interest =
  if i < 0 || i >= t.length then invalid_arg "Poll.set";
  set_entry t.buf i fd interest

let wait t n ~timeout_ms =
  if n < 0 || n > t.length then invalid_arg "Poll.wait";
  wait_buf t.buf n timeout_ms

let ready t i =
  if i < 0 || i >= t.length then invalid_arg "Poll.ready";
  ready_entry t.buf i
