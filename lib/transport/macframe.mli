(** Authenticated frames: HMAC-SHA256 sealing of length-prefixed frame
    bodies (PROTOCOLS.md section 12). A sealed body is
    [nonce(8, u64 BE) || tag(32) || payload] where the tag is
    HMAC-SHA256 over [nonce || u32_be(|payload|) || payload]; the
    sequential per-direction nonce and the MAC'd length defeat replay,
    reordering, truncation, and splicing. *)

val overhead : int
(** Bytes a sealed frame adds: 8 (nonce) + 32 (tag) = 40. *)

(** {1 Per-connection state} *)

type state
(** Independent send/receive nonce counters over one shared key; both
    directions start at 1 when the mode is negotiated. The key's HMAC
    midstates are computed once, and each direction keeps its own hash
    context, so sealing and opening allocate no hash state, and a send
    thread and a receive thread never share one. *)

val state : key:string -> state

val seal_in_place : state -> Bytes.t -> int -> int -> unit
(** [seal_in_place st buf off len] seals the [len]-byte payload that
    sits at [off + overhead] in [buf]: writes the next send nonce and
    the tag at [off] and advances the nonce. Allocates nothing. *)

val open_in_place : state -> Bytes.t -> int -> int -> unit
(** [open_in_place st buf off len] authenticates the [len]-byte sealed
    body at [off] against the expected receive nonce and advances it;
    the payload is the [len - overhead] bytes at [off + overhead].
    Allocates nothing. Raises only [Omf_util.Decode.Error] (layer
    ["mac"]), without advancing the nonce: [Truncated] for a frame
    shorter than {!overhead}, [Bad_mac] for a tag that does not verify,
    [Replayed] for a wrong nonce. *)

val seal_next : state -> Bytes.t -> Bytes.t
(** A fresh sealed body: {!seal_in_place} on a copy of the payload. *)

val header_length : int
(** Bytes {!seal_header} writes: the 4-byte length prefix, then the
    nonce and the tag — 44. *)

val seal_header : state -> Bytes.t -> Bytes.t -> int -> int -> unit
(** [seal_header st hdr buf off len] writes the wire header of the
    sealed frame whose payload is the [len] bytes at [off] in [buf]
    into [hdr]'s first {!header_length} bytes — the big-endian length
    of the sealed body, the next send nonce and the tag, MAC'd over the
    payload in place — and advances the nonce. [hdr] followed by the
    payload is [Frame.encode (seal_next st payload)]. Allocates
    nothing. *)

val open_next : state -> Bytes.t -> Bytes.t
(** {!open_in_place} on a whole frame, then a copy of its payload. *)
