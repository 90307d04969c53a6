(** A framed client link ({!Omf_transport.Tcp.link_of_fd}) on one end of
    a socketpair, in one of the four negotiated frame modes, with the
    raw other end standing in for the relay; and the per-call
    allocation of the link's send and receive.

    Shared by test_transport's byte-identity and allocation cases and
    by bench/alloc.exe. *)

module Tcp = Omf_transport.Tcp
module Link = Omf_transport.Link
module Macframe = Omf_transport.Macframe
module Compress = Omf_compress.Compress
module Frame = Omf_reactor.Frame

type mode = { name : string; mac : bool; comp : bool }

let modes =
  [ { name = "plain"; mac = false; comp = false }
  ; { name = "mac"; mac = true; comp = false }
  ; { name = "comp"; mac = false; comp = true }
  ; { name = "mac+comp"; mac = true; comp = true } ]

let key = "linkpair-key"

type t = {
  mode : mode;
  link : Link.t;
  peer : Unix.file_descr;
  sent : Macframe.state;  (** the link's send nonces, replayed *)
  to_link : Macframe.state;  (** the peer's own send nonces *)
  sink : Bytes.t;  (** where {!drain} reads to *)
}

let create mode =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let link =
    Tcp.link_of_fd
      ?mac:(if mode.mac then Some (Macframe.state ~key) else None)
      ?comp:(if mode.comp then Some { Tcp.raw_bytes = 0; wire_bytes = 0 } else None)
      a
  in
  { mode; link; peer = b; sent = Macframe.state ~key
  ; to_link = Macframe.state ~key; sink = Bytes.create 65536 }

let close t =
  Link.close t.link;
  Unix.close t.peer

(* what a frame body carries on the wire in [t]'s mode: seal (compress
   body), each part only when negotiated *)
let wire_body t st body =
  let blk = if t.mode.comp then Compress.compress body else body in
  if t.mode.mac then Macframe.seal_next st blk else blk

(** The bytes the link must write for its next send of [body]. *)
let expected_send t body = Frame.encode (wire_body t t.sent body)

(** The next frame of [body] as the peer sends it to the link. *)
let peer_frame t body = Frame.encode (wire_body t t.to_link body)

(** The length of a frame of [body] on the wire. *)
let frame_length t body =
  Frame.header_length
  + (if t.mode.mac then Macframe.overhead else 0)
  + if t.mode.comp then Bytes.length (Compress.compress body) else Bytes.length body

let read_raw t n =
  let b = Bytes.create n in
  Tcp.really_read t.peer b 0 n;
  b

let write_raw t b = Tcp.really_write t.peer b 0 (Bytes.length b)

(* read and drop [n] bytes at the peer, allocating nothing *)
let rec drain t n =
  if n > 0 then begin
    let k = Tcp.read t.peer t.sink 0 (min n (Bytes.length t.sink)) in
    if k = 0 then raise End_of_file;
    drain t (n - k)
  end

(** Bytes one [Link.send] of [body] allocates, after warm-up. The
    frame must fit the socket buffer. *)
let send_bytes ?(iters = 200) t body =
  let n = frame_length t body in
  Alloc.bytes_per_call ~iters (fun () ->
      Link.send t.link body;
      drain t n)

(** Bytes one [Link.recv] of a frame of [body] allocates, after
    warm-up: the frames are sealed beforehand, the peer writes one per
    call. *)
let recv_bytes ?(iters = 200) t body =
  let frames = Array.init (iters + 1) (fun _ -> peer_frame t body) in
  let i = ref 0 in
  Alloc.bytes_per_call ~iters (fun () ->
      write_raw t frames.(!i);
      incr i;
      Link.recv_exn t.link)
