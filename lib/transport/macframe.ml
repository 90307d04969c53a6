(** Authenticated frames: HMAC-SHA256 sealing of the length-prefixed
    {!Omf_reactor.Frame} bodies (PROTOCOLS.md section 12).

    A sealed frame body is

    {v
    0   8   nonce (u64 BE, strictly sequential per direction, from 1)
    8   32  HMAC-SHA256(key, nonce_be8 || u32_be(|payload|) || payload)
    40  …   payload (the ordinary frame body: kind byte + rest)
    v}

    The MAC covers the nonce and the payload {e length} as well as the
    payload bytes, so a tampered length prefix (truncation) or bytes
    spliced between frames cannot produce a verifiable frame; the
    sequential nonce makes replayed or reordered frames fail too. Each
    direction of a connection runs its own nonce counter; both start at
    1 when the mode is negotiated (the relay's HELLO exchange). *)

exception Auth_error of string

let auth_error fmt = Printf.ksprintf (fun s -> raise (Auth_error s)) fmt

module Sha256 = Omf_util.Sha256
module Slice = Omf_util.Slice

let overhead = 8 + 32

(* The MAC is fed in place: the 12-byte [nonce || length] prefix, then
   the payload's own bytes, never a copy of them. *)
let mac_start ~key ~(nonce : int64) len =
  let h = Sha256.hmac_init ~key in
  let prefix = Bytes.create 12 in
  Bytes.set_int64_be prefix 0 nonce;
  Bytes.set_int32_be prefix 8 (Int32.of_int len);
  Sha256.hmac_feed_bytes h prefix 0 12;
  h

(* the tag over [len] payload bytes of [buf] at [off] *)
let mac ~key ~nonce buf off len : string =
  let h = mac_start ~key ~nonce len in
  Sha256.hmac_feed_bytes h buf off len;
  Sha256.hmac_finish h

(** [seal ~key ~nonce payload] is the sealed frame body. *)
let seal ~(key : string) ~(nonce : int64) (payload : Bytes.t) : Bytes.t =
  let tag = mac ~key ~nonce payload 0 (Bytes.length payload) in
  let b = Bytes.create (overhead + Bytes.length payload) in
  Bytes.set_int64_be b 0 nonce;
  Bytes.blit_string tag 0 b 8 32;
  Bytes.blit payload 0 b overhead (Bytes.length payload);
  b

let mac_slices ~key ~(nonce : int64) (payload : Slice.t list) : string =
  let h = mac_start ~key ~nonce (Slice.total payload) in
  List.iter
    (fun (s : Slice.t) ->
      Sha256.hmac_feed_bytes h s.Slice.buf s.Slice.off s.Slice.len)
    payload;
  Sha256.hmac_finish h

(** [seal_slices ~key ~nonce payload] seals an iovec payload —
    byte-identical to [seal ~key ~nonce (Slice.concat payload)]. This
    is the zero-copy frame path's one copy-on-seal: the MAC reads the
    slices in place, and the payload is copied once, into the sealed
    body (only on connections that negotiated auth). *)
let seal_slices ~(key : string) ~(nonce : int64) (payload : Slice.t list) :
    Bytes.t =
  let len = Slice.total payload in
  let tag = mac_slices ~key ~nonce payload in
  let b = Bytes.create (overhead + len) in
  Bytes.set_int64_be b 0 nonce;
  Bytes.blit_string tag 0 b 8 32;
  let pos = ref overhead in
  List.iter
    (fun s ->
      Slice.blit s b !pos;
      pos := !pos + Slice.length s)
    payload;
  b

(** [verify ~key ~expected_nonce frame] authenticates a sealed frame
    body and returns the payload. Raises {!Auth_error} on a short
    frame, a MAC mismatch, or a nonce that is not exactly the expected
    next value (replay / splice / deletion). *)
let verify ~(key : string) ~(expected_nonce : int64) (frame : Bytes.t) :
    Bytes.t =
  if Bytes.length frame < overhead then
    auth_error "sealed frame too short (%d bytes)" (Bytes.length frame);
  let nonce = Bytes.get_int64_be frame 0 in
  let tag = Bytes.sub_string frame 8 32 in
  let len = Bytes.length frame - overhead in
  if not (Sha256.equal_constant_time tag (mac ~key ~nonce frame overhead len))
  then auth_error "MAC mismatch (nonce %Ld)" nonce;
  if not (Int64.equal nonce expected_nonce) then
    auth_error "nonce %Ld, expected %Ld (replayed or dropped frame)" nonce
      expected_nonce;
  Bytes.sub frame overhead len

(* ------------------------------------------------------------------ *)
(* Per-connection state                                                 *)
(* ------------------------------------------------------------------ *)

type state = {
  key : string;
  mutable send_nonce : int64;  (** next nonce to use on send *)
  mutable recv_nonce : int64;  (** next nonce expected on receive *)
}

let state ~(key : string) : state =
  { key; send_nonce = 1L; recv_nonce = 1L }

let seal_next (st : state) (payload : Bytes.t) : Bytes.t =
  let b = seal ~key:st.key ~nonce:st.send_nonce payload in
  st.send_nonce <- Int64.succ st.send_nonce;
  b

let seal_next_slices (st : state) (payload : Slice.t list) : Bytes.t =
  let b = seal_slices ~key:st.key ~nonce:st.send_nonce payload in
  st.send_nonce <- Int64.succ st.send_nonce;
  b

(** [open_next st frame] verifies against the expected receive nonce
    and advances it. A failed frame does {e not} advance the counter —
    after in-flight tampering the chain stays broken by design and the
    peer's reject threshold closes the connection. *)
let open_next (st : state) (frame : Bytes.t) : Bytes.t =
  let payload = verify ~key:st.key ~expected_nonce:st.recv_nonce frame in
  st.recv_nonce <- Int64.succ st.recv_nonce;
  payload

(** [wrap st link] seals every sent message and verifies every received
    one. Receive raises {!Auth_error} on a forged, replayed, or spliced
    frame — callers should close the link. *)
let wrap (st : state) (link : Link.t) : Link.t =
  { Link.send = (fun msg -> Link.send link (seal_next st msg))
  ; recv =
      (fun () ->
        match Link.recv link with
        | None -> None
        | Some frame -> Some (open_next st frame))
  ; close = (fun () -> Link.close link) }
