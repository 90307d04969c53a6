(** Machine / compiler ABI descriptions: byte order and the size and
    alignment of each C primitive type. Registering the same message
    format under two ABIs yields two different native layouts — the
    heterogeneity NDR's receiver-side conversion bridges. Profiles follow
    the System V psABI conventions of their processors. *)

type prim =
  | Char
  | Uchar
  | Short
  | Ushort
  | Int
  | Uint
  | Long
  | Ulong
  | Longlong
  | Ulonglong
  | Float
  | Double
  | Pointer

val prim_name : prim -> string
(** The C spelling, e.g. ["unsigned long"]. *)

val prim_signed : prim -> bool

type t = {
  name : string;
  endianness : Endian.order;
  short_size : int;
  int_size : int;
  long_size : int;
  longlong_size : int;
  pointer_size : int;
  align_cap : int;
      (** a primitive's alignment is [min size align_cap]: 8 = natural,
          4 on i386 (8-byte scalars align to 4), 2 on m68k *)
}

val size_of : t -> prim -> int
(** [sizeof(prim)] under this ABI. *)

val align_of : t -> prim -> int
(** Required alignment: natural, capped at [align_cap]. *)

(** {1 Standard profiles} *)

val x86_32 : t
val x86_64 : t
val sparc_32 : t
val sparc_64 : t
val arm_32 : t
val power_64 : t
val alpha_64 : t
val all : t list

val native : t
(** The ABI examples treat as "this machine" (x86-64). *)

val find_by_name : string -> t option

(** {1 Fingerprints} — the compact on-the-wire identification of an ABI,
    carried in every format descriptor, once per connection. *)

val fingerprint : t -> string
(** 6 bytes: endianness, short/int/long/pointer sizes, alignment cap. *)

exception Bad_fingerprint of string

val of_fingerprint : string -> t
(** Reconstructs an ABI (a known profile when one matches, otherwise a
    synthetic one). Raises {!Bad_fingerprint} on malformed input. *)

val layout_equal : t -> t -> bool
(** Two ABIs are layout-equal when every primitive has the same size and
    alignment and byte order agrees: structures then have byte-identical
    images (e.g. x86-64 and alpha-64). *)
