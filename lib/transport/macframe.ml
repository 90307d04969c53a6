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

module Sha256 = Omf_util.Sha256
module Decode = Omf_util.Decode
module Frame = Omf_reactor.Frame

let overhead = 8 + 32

(* ------------------------------------------------------------------ *)
(* Per-connection state                                                 *)
(* ------------------------------------------------------------------ *)

(* One direction of a connection: its nonce counter and the hash
   context and scratch every MAC in that direction reuses, so a MAC
   allocates nothing. Send and receive may run on different threads;
   neither touches the other's half. *)
type dir = {
  ctx : Sha256.ctx;
  len_be : Bytes.t;  (** the MAC'd u32 payload length, 4 bytes *)
  tag : Bytes.t;  (** a computed tag, for comparison, 32 bytes *)
  mutable nonce : int;  (** next nonce to seal, or expected on receive *)
}

type state = {
  key : Sha256.hmac_key;  (** the key's midstates, computed once *)
  tx : dir;
  rx : dir;
}

let dir () =
  { ctx = Sha256.init (); len_be = Bytes.create 4; tag = Bytes.create 32
  ; nonce = 1 }

let state ~(key : string) : state =
  { key = Sha256.hmac_key key; tx = dir (); rx = dir () }

(* The tag over the 8 nonce bytes at [noff] in [nbuf] and the [len]
   payload bytes at [poff] in [pbuf]: the nonce, the payload length and
   the payload are fed in place, never copied. Written at [out_off] in
   [out]. *)
let tag_into key (d : dir) nbuf noff pbuf poff len out out_off =
  let c = d.ctx in
  Sha256.hmac_start key c;
  Sha256.feed_bytes c nbuf noff 8;
  Bytes.set_int32_be d.len_be 0 (Int32.of_int len);
  Sha256.feed_bytes c d.len_be 0 4;
  Sha256.feed_bytes c pbuf poff len;
  Sha256.hmac_finish_into key c out out_off

(** [seal_in_place st buf off len] seals the [len]-byte payload at
    [off + overhead] in [buf]: writes the next send nonce and the tag
    in front of it and advances the nonce. Allocates nothing. *)
let seal_in_place (st : state) buf off len =
  Bytes.set_int64_be buf off (Int64.of_int st.tx.nonce);
  tag_into st.key st.tx buf off buf (off + overhead) len buf (off + 8);
  st.tx.nonce <- st.tx.nonce + 1

(* the sealed body of [len] bytes at [off] carries a valid tag *)
let check_tag key (d : dir) buf off len =
  Decode.need "mac" ~base:0 ~stop:len 0 overhead;
  tag_into key d buf off buf (off + overhead) (len - overhead) d.tag 0;
  (* constant time: no early exit on the first differing byte *)
  let acc = ref 0 in
  for i = 0 to 31 do
    acc :=
      !acc
      lor (Char.code (Bytes.unsafe_get d.tag i)
          lxor Char.code (Bytes.get buf (off + 8 + i)))
  done;
  if !acc <> 0 then Decode.(fail "mac" 8 Bad_mac)

(** [open_in_place st buf off len] authenticates the [len]-byte sealed
    body at [off] in [buf] against the expected receive nonce and
    advances it; the payload is then the [len - overhead] bytes at
    [off + overhead]. Allocates nothing. A failed frame raises
    [Decode.Error] and does {e not} advance the counter — after
    in-flight tampering the chain stays broken by design and the peer's
    reject threshold closes the connection. *)
let open_in_place (st : state) buf off len =
  check_tag st.key st.rx buf off len;
  if Bytes.get_int64_be buf off <> Int64.of_int st.rx.nonce then
    Decode.(fail "mac" 0 Replayed);
  st.rx.nonce <- st.rx.nonce + 1

let seal_next (st : state) (payload : Bytes.t) : Bytes.t =
  let len = Bytes.length payload in
  let b = Bytes.create (overhead + len) in
  Bytes.blit payload 0 b overhead len;
  seal_in_place st b 0 len;
  b

let header_length = Frame.header_length + overhead

(** [seal_header st hdr buf off len] writes the wire header of the
    sealed frame whose payload is the [len] bytes at [off] in [buf]
    into [hdr]'s first {!header_length} bytes: the 4-byte big-endian
    length of the sealed body, the next send nonce and the tag, MAC'd
    over the payload where it lies. [hdr] followed by the payload is
    byte-identical to the length-prefixed [seal_next st payload]. This
    is how the relay seals: each connection writes its own header in
    front of a payload it shares with every other queue, so sealing
    copies nothing. Advances the nonce; allocates nothing. *)
let seal_header (st : state) hdr buf off len =
  let h = Frame.header_length in
  Frame.write_header hdr 0 (overhead + len);
  Bytes.set_int64_be hdr h (Int64.of_int st.tx.nonce);
  tag_into st.key st.tx hdr h buf off len hdr (h + 8);
  st.tx.nonce <- st.tx.nonce + 1

(** [open_next st frame] verifies against the expected receive nonce,
    advances it, and returns a copy of the payload. *)
let open_next (st : state) (frame : Bytes.t) : Bytes.t =
  let len = Bytes.length frame in
  open_in_place st frame 0 len;
  Bytes.sub frame overhead (len - overhead)
