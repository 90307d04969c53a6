(** The one error of every decoder of bytes another party wrote —
    frame lengths, wire headers, descriptors, NDR payloads, XDR and XML
    messages, LZ blocks, sealed frames, journals — and one
    bounds-checked cursor. A schema mismatch (a sound message the
    receiver's formats cannot take) is not a decode error. *)

type reason =
  | Truncated  (** the input ends before what it announces *)
  | Too_long  (** a length or count above what the reader accepts *)
  | Bad_magic  (** a magic number or version the reader does not speak *)
  | Bad_tag  (** a tag, kind or code outside its set *)
  | Bad_mac  (** an authentication tag that does not verify *)
  | Replayed  (** a sealed frame out of its nonce sequence *)
  | Inconsistent  (** well-formed parts that contradict each other *)

exception Error of { layer : string; offset : int; reason : reason }
(** [layer] names the decoder (["frame"], ["wire"], ["descriptor"],
    ["ndr"], ["xdr"], ["xml"], ["lz"], ["mac"], ["endpoint"],
    ["journal"]); [offset] is where in that decoder's input the fault
    is (a journal gives the record's offset in the file, XML text 0). *)

val fail : string -> int -> reason -> 'a
(** [fail layer offset reason] raises {!Error}. *)

val message : string -> int -> reason -> string
(** ["LAYER: REASON at byte OFFSET"], also {!Error}'s {!Printexc}
    rendering. *)

val need : string -> base:int -> stop:int -> int -> int -> unit
(** [need layer ~base ~stop pos n] raises [Truncated] at [pos - base]
    unless the [n] bytes at [pos] lie in [\[base, stop)]. Allocates
    nothing. *)

type cursor
(** Reads a window of a buffer in order; its offsets count from the
    window's start. *)

val cursor : string -> Bytes.t -> int -> int -> cursor
(** [cursor layer buf off len]. *)

val buffer : cursor -> Bytes.t
val offset : cursor -> int
val remaining : cursor -> int

val take : cursor -> int -> int
(** [take c n] moves past the next [n] bytes ({!need}) and returns
    their position in the buffer. *)

val u8 : cursor -> int
val u32 : cursor -> int
(** Big-endian, unsigned. *)

val string : cursor -> int -> string
val fail_at : cursor -> reason -> 'a
