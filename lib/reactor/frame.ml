(** Length-prefixed frame codec with incremental reassembly.

    The TCP framing (PROTOCOLS.md section 5) is a 4-byte big-endian
    length followed by the frame body. {!Tcp} reads it with blocking
    [really_read]; an event-loop server ({!Omf_relay}) instead gets
    arbitrary chunks from non-blocking sockets and must reassemble
    frames across partial reads — that is {!Decoder}'s job. The encoder
    side is shared by both. *)

module Slice = Omf_util.Slice

let header_length = 4

(* Frames longer than this (1 GiB) are treated as protocol corruption. *)
let max_frame = 1 lsl 30

let write_header (buf : Bytes.t) (off : int) (len : int) : unit =
  Bytes.set_int32_be buf off (Int32.of_int len)

let read_header (buf : Bytes.t) (off : int) : int =
  let len = Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFF_FFFF in
  if len > max_frame then Omf_util.Decode.(fail "frame" 0 Too_long);
  len

(** [encode body] is the on-the-wire bytes: header + body, one buffer
    (so one [write] on the socket). Copies [body]; the zero-copy path
    is {!wire}. *)
let encode (body : Bytes.t) : Bytes.t =
  let len = Bytes.length body in
  let b = Bytes.create (header_length + len) in
  write_header b 0 len;
  Bytes.blit body 0 b header_length len;
  b

(* ------------------------------------------------------------------ *)
(* Incremental decoder                                                  *)
(* ------------------------------------------------------------------ *)

module Decoder = struct
  type t = {
    mutable buf : Bytes.t;  (** accumulated unconsumed bytes *)
    mutable start : int;  (** first live byte in [buf] *)
    mutable stop : int;  (** one past the last live byte *)
  }

  let create () : t = { buf = Bytes.create 4096; start = 0; stop = 0 }

  let pending_bytes t = t.stop - t.start

  let ensure_room t extra =
    let live = pending_bytes t in
    if Bytes.length t.buf - t.stop < extra then
      if Bytes.length t.buf - live >= extra && t.start > 0 then begin
        (* compact in place *)
        Bytes.blit t.buf t.start t.buf 0 live;
        t.start <- 0;
        t.stop <- live
      end
      else begin
        let cap = ref (max 4096 (2 * Bytes.length t.buf)) in
        while !cap < live + extra do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit t.buf t.start nb 0 live;
        t.buf <- nb;
        t.start <- 0;
        t.stop <- live
      end

  (** [feed t chunk off len] appends raw socket bytes. *)
  let feed (t : t) (chunk : Bytes.t) (off : int) (len : int) : unit =
    if len < 0 || off < 0 || off + len > Bytes.length chunk then
      invalid_arg "Frame.Decoder.feed";
    ensure_room t len;
    Bytes.blit chunk off t.buf t.stop len;
    t.stop <- t.stop + len

  (** [has_frame t]: a complete frame body has arrived. *)
  let has_frame (t : t) : bool =
    pending_bytes t >= header_length
    && pending_bytes t >= header_length + read_header t.buf t.start

  (** [pop t] is a view of the next complete frame body, which
      {!has_frame} found. The view borrows [t]'s buffer: it stays valid
      until the next {!feed}, which may compact or reuse the buffer. *)
  let pop (t : t) : Slice.t =
    if not (has_frame t) then invalid_arg "Frame.Decoder.pop: no frame";
    let len = read_header t.buf t.start in
    let body = Slice.make t.buf (t.start + header_length) len in
    t.start <- t.start + header_length + len;
    if t.start = t.stop then begin
      t.start <- 0;
      t.stop <- 0
    end;
    body

  (** [rehome t] moves the unconsumed backlog into a fresh buffer, so
      no later {!feed} writes over a view {!pop} already returned. *)
  let rehome (t : t) : unit =
    let live = pending_bytes t in
    let nb = Bytes.create (max 4096 live) in
    Bytes.blit t.buf t.start nb 0 live;
    t.buf <- nb;
    t.start <- 0;
    t.stop <- live
end
