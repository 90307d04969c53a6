(** Byte-order primitives: read and write integers and IEEE floats of any
    width 1..8 at arbitrary offsets in a [bytes] buffer, in either byte
    order. All integer values travel as [int64] so that 8-byte unsigned
    quantities round-trip losslessly (as bit patterns).

    Widths 1, 2, 4 and 8 — every C primitive — go through the compiler's
    unboxed [Bytes.get/set_{uint16,int32,int64}_{le,be}] primitives; only
    odd widths fall back to a byte loop. The [int]-valued and
    buffer-to-buffer operations ({!read_offset}, {!read_count}, {!convert},
    {!swap_blit}) keep every intermediate unboxed, so the conversion and
    encoding hot paths allocate nothing per value. *)

type order = Little | Big

let order_equal a b =
  match (a, b) with Little, Little | Big, Big -> true | _ -> false

let check name buf ~off ~size =
  if size < 1 || size > 8 then invalid_arg ("Endian." ^ name ^ ": size");
  if off < 0 || off > Bytes.length buf - size then
    invalid_arg ("Endian." ^ name ^ ": bounds")

(* The raw [size]-byte pattern at [off] as a non-negative [int64]. Bounds
   are checked by the callers. *)
let[@inline] get_bits order buf off size =
  match (size, order) with
  | 1, _ -> Int64.of_int (Char.code (Bytes.unsafe_get buf off))
  | 2, Little -> Int64.of_int (Bytes.get_uint16_le buf off)
  | 2, Big -> Int64.of_int (Bytes.get_uint16_be buf off)
  | 4, Little ->
    Int64.of_int (Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFF_FFFF)
  | 4, Big ->
    Int64.of_int (Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFF_FFFF)
  | 8, Little -> Bytes.get_int64_le buf off
  | 8, Big -> Bytes.get_int64_be buf off
  | _ ->
    let v = ref 0L in
    for i = 0 to size - 1 do
      let shift = 8 * (match order with Little -> i | Big -> size - 1 - i) in
      let byte = Int64.of_int (Char.code (Bytes.unsafe_get buf (off + i))) in
      v := Int64.logor !v (Int64.shift_left byte shift)
    done;
    !v

(* Store the low [size] bytes of [v]. Bounds are checked by the callers. *)
let[@inline] set_bits order buf off size v =
  match (size, order) with
  | 1, _ ->
    Bytes.unsafe_set buf off (Char.unsafe_chr (Int64.to_int v land 0xFF))
  | 2, Little -> Bytes.set_uint16_le buf off (Int64.to_int v land 0xFFFF)
  | 2, Big -> Bytes.set_uint16_be buf off (Int64.to_int v land 0xFFFF)
  | 4, Little -> Bytes.set_int32_le buf off (Int64.to_int32 v)
  | 4, Big -> Bytes.set_int32_be buf off (Int64.to_int32 v)
  | 8, Little -> Bytes.set_int64_le buf off v
  | 8, Big -> Bytes.set_int64_be buf off v
  | _ ->
    for i = 0 to size - 1 do
      let shift = 8 * (match order with Little -> i | Big -> size - 1 - i) in
      let byte = Int64.to_int (Int64.shift_right_logical v shift) land 0xFF in
      Bytes.unsafe_set buf (off + i) (Char.unsafe_chr byte)
    done

(* two's-complement sign extension of a [size]-byte pattern *)
let[@inline] sign_extend v size =
  if size = 8 then v
  else
    let sh = 64 - (8 * size) in
    Int64.shift_right (Int64.shift_left v sh) sh

(** [write_uint order buf ~off ~size v] stores the low [size] bytes of [v]
    at [buf.[off..off+size-1]] in the given byte order. [size] must be in
    1..8. Truncates silently (two's-complement wrap), as C stores do. *)
let write_uint order buf ~off ~size v =
  check "write_uint" buf ~off ~size;
  set_bits order buf off size v

(** [read_uint order buf ~off ~size] reads an unsigned integer (as a
    non-negative bit pattern in the low [size] bytes of the result). *)
let read_uint order buf ~off ~size =
  check "read_uint" buf ~off ~size;
  get_bits order buf off size

(** [read_int order buf ~off ~size] reads a two's-complement signed integer,
    sign-extended to 64 bits. *)
let read_int order buf ~off ~size =
  check "read_int" buf ~off ~size;
  sign_extend (get_bits order buf off size) size

(** [read_offset] is [Int64.to_int (read_uint ...)] without the boxed
    intermediate: pointer slots, payload offsets and counts. *)
let read_offset order buf ~off ~size =
  check "read_offset" buf ~off ~size;
  Int64.to_int (get_bits order buf off size)

(** [write_offset] is [write_uint ... (Int64.of_int v)] without the boxed
    intermediate. *)
let write_offset order buf ~off ~size v =
  check "write_offset" buf ~off ~size;
  set_bits order buf off size (Int64.of_int v)

(** [read_count order buf ~off ~size] reads a signed integer that sizes
    an array, as an [int]: its value when that lies in [0, max_int], and
    -1 otherwise (negative, or too large to index anything). *)
let read_count order buf ~off ~size =
  check "read_count" buf ~off ~size;
  let v = sign_extend (get_bits order buf off size) size in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
  then -1
  else Int64.to_int v

(** IEEE-754 float stores. [size] must be 4 or 8; 4-byte stores round to
    single precision exactly as a C [float] assignment would. *)
let write_float order buf ~off ~size v =
  match size with
  | 8 ->
    check "write_float" buf ~off ~size;
    set_bits order buf off 8 (Int64.bits_of_float v)
  | 4 ->
    check "write_float" buf ~off ~size;
    set_bits order buf off 4 (Int64.of_int32 (Int32.bits_of_float v))
  | _ -> invalid_arg "Endian.write_float: size must be 4 or 8"

let read_float order buf ~off ~size =
  match size with
  | 8 ->
    check "read_float" buf ~off ~size;
    Int64.float_of_bits (get_bits order buf off 8)
  | 4 ->
    check "read_float" buf ~off ~size;
    Int32.float_of_bits (Int64.to_int32 (get_bits order buf off 4))
  | _ -> invalid_arg "Endian.read_float: size must be 4 or 8"

type kind = Signed | Unsigned | Ieee

(** [convert kind src_order src ~src_off ~src_size dst_order dst ~dst_off
    ~dst_size] moves one number between buffers, converting byte order
    and width as a C assignment would: [Signed] sign-extends when
    widening, [Unsigned] zero-extends, both truncate when narrowing;
    [Ieee] re-encodes between 4- and 8-byte floats (same-width floats
    move as bit patterns). Allocates nothing. *)
let convert kind src_order src ~src_off ~src_size dst_order dst ~dst_off
    ~dst_size =
  check "convert" src ~off:src_off ~size:src_size;
  check "convert" dst ~off:dst_off ~size:dst_size;
  match kind with
  | Ieee when src_size <> dst_size -> (
    match (src_size, dst_size) with
    | 8, 4 ->
      let f = Int64.float_of_bits (get_bits src_order src src_off 8) in
      set_bits dst_order dst dst_off 4 (Int64.of_int32 (Int32.bits_of_float f))
    | 4, 8 ->
      let f =
        Int32.float_of_bits (Int64.to_int32 (get_bits src_order src src_off 4))
      in
      set_bits dst_order dst dst_off 8 (Int64.bits_of_float f)
    | _ -> invalid_arg "Endian.convert: float size must be 4 or 8")
  | Ieee | Unsigned ->
    set_bits dst_order dst dst_off dst_size
      (get_bits src_order src src_off src_size)
  | Signed ->
    set_bits dst_order dst dst_off dst_size
      (sign_extend (get_bits src_order src src_off src_size) src_size)

(* Native-order access without a bounds check, and the byte swaps, for
   loops whose whole span is checked once before they start. *)
external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(** [swap_blit ~src ~src_off ~dst ~dst_off ~size ~count] copies [count]
    contiguous [size]-byte values, reversing the bytes of each: a whole
    same-width array moved across byte orders in one pass. *)
let swap_blit ~src ~src_off ~dst ~dst_off ~size ~count =
  (* [count] is bounded first, so [size * count] cannot overflow *)
  if size < 1 || count < 0 || count > Bytes.length src || src_off < 0
     || dst_off < 0
     || src_off > Bytes.length src - (size * count)
     || dst_off > Bytes.length dst - (size * count)
  then invalid_arg "Endian.swap_blit";
  match size with
  | 8 ->
    for i = 0 to count - 1 do
      set64u dst (dst_off + (8 * i)) (bswap64 (get64u src (src_off + (8 * i))))
    done
  | 4 ->
    for i = 0 to count - 1 do
      set32u dst (dst_off + (4 * i)) (bswap32 (get32u src (src_off + (4 * i))))
    done
  | 2 ->
    for i = 0 to count - 1 do
      set16u dst (dst_off + (2 * i)) (bswap16 (get16u src (src_off + (2 * i))))
    done
  | _ ->
    for i = 0 to count - 1 do
      for j = 0 to size - 1 do
        Bytes.unsafe_set dst
          (dst_off + (size * i) + j)
          (Bytes.unsafe_get src (src_off + (size * i) + size - 1 - j))
      done
    done

(** [swap_in_place buf ~off ~size] reverses the [size] bytes at [off]:
    the core of byte-order conversion for same-width transfers. *)
let swap_in_place buf ~off ~size =
  let i = ref off and j = ref (off + size - 1) in
  while !i < !j do
    let t = Bytes.get buf !i in
    Bytes.set buf !i (Bytes.get buf !j);
    Bytes.set buf !j t;
    incr i;
    decr j
  done
