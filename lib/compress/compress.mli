(** Negotiated wire compression: a dependency-free LZ block codec.

    The codec is LZ4-flavoured — a hash-chain match finder feeding a
    literal/match token stream — but the block format is our own
    (doc/COMPRESS.md). Every block is self-contained and stateless:
    there is no cross-frame dictionary, so a compressed frame can be
    dropped by queue policy, shared verbatim across a fan-out, or
    replayed out of context without corrupting anything downstream.

    Block layout (first byte is the tag):

    {v
      0x00  stored  — payload is the input verbatim (worst case: n+1)
      0x01  lz      — u32 BE decompressed length, then the token stream
    v}

    An LZ token packs literal length (high nibble) and match length − 4
    (low nibble), each extended past 14 by 255-continuation bytes;
    literals follow the token, then a 2-byte big-endian match distance
    (1..65535). A block ends after a literal run (or exactly after a
    match) when the input is exhausted. The encoder only emits an [lz]
    block when it is strictly smaller than the stored form, so
    incompressible input costs exactly one byte of framing.

    The decoder bounds-checks every read and write and raises only
    [Omf_util.Decode.Error] (layer ["lz"], offsets into the block) on a
    malformed block: [Truncated] stream, [Bad_tag], a header claiming
    more than 255 bytes per token-stream byte ([Too_long], refused
    before the output is allocated), or a distance past the output
    start or a length that disagrees with the header
    ([Inconsistent]). *)

val bound : int -> int
(** [bound n] is the worst-case block size for [n] input bytes: [n+1]. *)

type scratch
(** Reusable match-finder workspace. It allocates on first use and
    grows with the blocks it compresses: the 128 KiB hash head on the
    first LZ compress, and a chain ring of the next power of two that
    fits the largest block so far (64 to 65 536 entries, 8 B each).
    Without one, every compress call allocates and initializes its own
    chain arrays — fine for occasional blocks (segment sealing),
    ruinous at frame rate. A scratch is single-owner state: never share
    one across threads. Output is identical with or without, whatever
    the ring's size. *)

val scratch : unit -> scratch
(** A fresh, empty workspace; allocates a dozen words. *)

val compress : ?scratch:scratch -> Bytes.t -> Bytes.t
(** Compress a whole buffer into one self-contained block. With a
    scratch, the block is built in a buffer the scratch keeps, so the
    call allocates only the block it returns. *)

val compress_into :
  ?scratch:scratch -> Bytes.t -> pos:int -> len:int -> Bytes.t -> off:int -> int
(** [compress_into src ~pos ~len dst ~off] writes the block for the
    window at [off] in [dst] and returns its length. [dst] needs
    [bound len] bytes of room there; with a scratch, the call allocates
    nothing. Raises [Invalid_argument] when either window escapes its
    buffer. *)

val compress_slice : ?scratch:scratch -> Omf_util.Slice.t -> Bytes.t
(** Compress the viewed bytes without copying them first. *)

val decompress : Bytes.t -> Bytes.t
(** Decompress a whole block. Raises [Omf_util.Decode.Error] on
    malformed input. *)

val decompress_sub :
  ?into:(int -> Bytes.t) -> Bytes.t -> pos:int -> len:int -> Bytes.t
(** Decompress a block sitting in a window of a larger buffer. Raises
    [Omf_util.Decode.Error] on malformed input, [Invalid_argument] on a
    bad window.
    [into n] (default [Bytes.create]) supplies the buffer the block
    decodes into and returns, of exactly the block's [n] decompressed
    bytes ([Invalid_argument] otherwise) — a caller-owned buffer
    reused across blocks of one length, say. It runs once the header
    is checked, so a header claiming an impossible length raises
    [Decode.Error] without calling it. A block that fails later may have
    written into the buffer. *)


val is_lz : Bytes.t -> bool
(** Whether the block carries an [lz] payload (false for stored —
    observability only, both forms decompress the same way). *)
