(** Byte-order primitives: integers and IEEE floats of width 1..8 at
    arbitrary offsets in a [bytes] buffer, in either byte order. Integer
    values travel as [int64] bit patterns so 8-byte unsigned quantities
    round-trip losslessly. Widths 1, 2, 4 and 8 use the compiler's unboxed
    byte-access primitives; {!read_offset}, {!write_offset},
    {!read_count}, {!convert} and {!swap_blit} allocate nothing. *)

type order = Little | Big

val order_equal : order -> order -> bool

val write_uint : order -> bytes -> off:int -> size:int -> int64 -> unit
(** Stores the low [size] bytes (1..8) of the value; truncates silently
    (two's-complement wrap), as C stores do. Raises [Invalid_argument] on
    bad size or bounds. *)

val read_uint : order -> bytes -> off:int -> size:int -> int64
(** Unsigned read: non-negative bit pattern in the low [size] bytes. *)

val read_int : order -> bytes -> off:int -> size:int -> int64
(** Signed read: two's-complement, sign-extended to 64 bits. *)

val read_offset : order -> bytes -> off:int -> size:int -> int
(** [Int64.to_int (read_uint ...)] without the boxed intermediate: for
    pointer slots, payload offsets and counts. *)

val write_offset : order -> bytes -> off:int -> size:int -> int -> unit
(** [write_uint ... (Int64.of_int v)] without the boxed intermediate. *)

val read_count : order -> bytes -> off:int -> size:int -> int
(** A signed integer that sizes an array, as an [int]: its value when it
    lies in [0, max_int], else -1. No boxed intermediate. *)

val write_float : order -> bytes -> off:int -> size:int -> float -> unit
(** IEEE-754 store; [size] must be 4 or 8. 4-byte stores round to single
    precision exactly as a C [float] assignment would. *)

val read_float : order -> bytes -> off:int -> size:int -> float

type kind =
  | Signed  (** sign-extends when widening *)
  | Unsigned  (** zero-extends when widening *)
  | Ieee  (** re-encodes between 4- and 8-byte floats *)

val convert :
  kind -> order -> bytes -> src_off:int -> src_size:int -> order -> bytes ->
  dst_off:int -> dst_size:int -> unit
(** Move one number between buffers, converting byte order and width as a
    C assignment would (integers truncate when narrowing; same-width
    floats move as bit patterns). Raises [Invalid_argument] on bad sizes
    or bounds. *)

val swap_blit :
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> size:int ->
  count:int -> unit
(** Copy [count] contiguous [size]-byte values, reversing the bytes of
    each: a same-width array moved across byte orders in one pass. *)

val swap_in_place : bytes -> off:int -> size:int -> unit
(** Reverses the [size] bytes at [off]: the core of byte-order conversion
    for same-width transfers. *)
