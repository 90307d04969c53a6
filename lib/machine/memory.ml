(** Simulated process address space.

    The paper's data lives in C memory: structures whose string and
    dynamic-array fields are raw pointers into the heap. To reproduce NDR —
    "move data directly out of memory onto the transmission medium" — we
    give each simulated process an address space in which program data
    exists as genuine native byte images under that process's {!Abi.t}.

    Addresses are plain integers, non-zero (address 0 is the null pointer),
    allocated from a growable arena. Reads and writes honour the owning
    ABI's byte order via {!Endian}. *)

type t = {
  abi : Abi.t;
  mutable arena : bytes;
  mutable brk : int;  (** next free offset within the arena *)
  base : int;  (** simulated address of arena offset 0; keeps 0 = NULL *)
  mutable out : bytes;  (** the buffer {!out_buffer} lends *)
}

let null = 0

let create (abi : Abi.t) : t =
  { abi; arena = Bytes.make 4096 '\000'; brk = 0; base = 0x1000
  ; out = Bytes.empty }

let abi t = t.abi

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let offset_of_addr t addr len =
  let off = addr - t.base in
  if addr = null then fault "null pointer dereference"
  else if off < 0 || off + len > t.brk then
    fault "access [0x%x, +%d) outside allocated arena (brk=0x%x)" addr len
      (t.base + t.brk)
  else off

let ensure_capacity t needed =
  let cap = Bytes.length t.arena in
  if needed > cap then begin
    let cap' = max needed (cap * 2) in
    let arena' = Bytes.make cap' '\000' in
    Bytes.blit t.arena 0 arena' 0 t.brk;
    t.arena <- arena'
  end

(** [alloc t ~align size] returns the simulated address of a fresh
    zero-initialised block. [size = 0] is allowed (returns a unique,
    valid-for-zero-length address). [~align] is required: an optional
    one would box a [Some] on every call with a computed alignment. *)
let alloc t ~align size =
  if size < 0 then invalid_arg "Memory.alloc: negative size";
  let align = max 1 align in
  let start = (t.brk + align - 1) / align * align in
  ensure_capacity t (start + max size 1);
  Bytes.fill t.arena start (max size 1) '\000';
  t.brk <- start + max size 1;
  t.base + start

(* ---- raw byte access ---- *)

let read_bytes t addr len =
  let off = offset_of_addr t addr len in
  Bytes.sub t.arena off len

let write_bytes t addr (src : bytes) =
  let off = offset_of_addr t addr (Bytes.length src) in
  Bytes.blit src 0 t.arena off (Bytes.length src)

let write_string t addr (src : string) =
  let off = offset_of_addr t addr (String.length src) in
  Bytes.blit_string src 0 t.arena off (String.length src)

let blit_to_buffer t addr len ~dst ~dst_off =
  let off = offset_of_addr t addr len in
  Bytes.blit t.arena off dst dst_off len

let blit_from_buffer t ~src ~src_off ~len addr =
  let off = offset_of_addr t addr len in
  Bytes.blit src src_off t.arena off len

(* ---- typed access in the owner's byte order ---- *)

(* Each typed access goes straight from the arena to the caller through
   Endian's unboxed primitives: a read boxes only the value it returns,
   a write allocates nothing. *)

let read_uint t addr ~size =
  let off = offset_of_addr t addr size in
  Endian.read_uint t.abi.Abi.endianness t.arena ~off ~size

let read_int t addr ~size =
  let off = offset_of_addr t addr size in
  Endian.read_int t.abi.Abi.endianness t.arena ~off ~size

let read_count t addr ~size =
  let off = offset_of_addr t addr size in
  Endian.read_count t.abi.Abi.endianness t.arena ~off ~size

let write_uint t addr ~size v =
  let off = offset_of_addr t addr size in
  Endian.write_uint t.abi.Abi.endianness t.arena ~off ~size v

let write_int = write_uint

let write_count t addr ~size n =
  let off = offset_of_addr t addr size in
  Endian.write_offset t.abi.Abi.endianness t.arena ~off ~size n

let read_char t addr = Bytes.get t.arena (offset_of_addr t addr 1)
let write_char t addr c = Bytes.set t.arena (offset_of_addr t addr 1) c

let read_float t addr ~size =
  let off = offset_of_addr t addr size in
  Endian.read_float t.abi.Abi.endianness t.arena ~off ~size

let write_float t addr ~size v =
  let off = offset_of_addr t addr size in
  Endian.write_float t.abi.Abi.endianness t.arena ~off ~size v

(* ---- bulk float arrays ---- *)

(* [count] contiguous [size]-byte floats: the span's bounds are checked
   once, then each element moves through the unboxed
   [Bytes.get/set_int{32,64}_{le,be}] primitives, so the loops allocate
   nothing beyond the returned array. *)

let float_span name t addr ~size ~count =
  if size <> 4 && size <> 8 then
    invalid_arg (Printf.sprintf "Memory.%s: size must be 4 or 8" name);
  offset_of_addr t addr (size * count)

(** [read_floats t addr ~size ~count] reads [count] contiguous [size]-byte
    IEEE floats at [addr] as one unboxed array; 4-byte floats widen
    exactly. *)
let read_floats t addr ~size ~count =
  let off = float_span "read_floats" t addr ~size ~count in
  let buf = t.arena in
  let a = Float.Array.create count in
  (match (size, t.abi.Abi.endianness) with
  | 8, Endian.Little ->
    for i = 0 to count - 1 do
      Float.Array.unsafe_set a i
        (Int64.float_of_bits (Bytes.get_int64_le buf (off + (8 * i))))
    done
  | 8, Endian.Big ->
    for i = 0 to count - 1 do
      Float.Array.unsafe_set a i
        (Int64.float_of_bits (Bytes.get_int64_be buf (off + (8 * i))))
    done
  | _, Endian.Little ->
    for i = 0 to count - 1 do
      Float.Array.unsafe_set a i
        (Int32.float_of_bits (Bytes.get_int32_le buf (off + (4 * i))))
    done
  | _, Endian.Big ->
    for i = 0 to count - 1 do
      Float.Array.unsafe_set a i
        (Int32.float_of_bits (Bytes.get_int32_be buf (off + (4 * i))))
    done);
  a

(** [write_floats t addr ~size a] stores every element of [a] as a
    contiguous [size]-byte IEEE float at [addr]; 4-byte stores round to
    single precision as a C [float] assignment does. *)
let write_floats t addr ~size a =
  let count = Float.Array.length a in
  let off = float_span "write_floats" t addr ~size ~count in
  let buf = t.arena in
  match (size, t.abi.Abi.endianness) with
  | 8, Endian.Little ->
    for i = 0 to count - 1 do
      Bytes.set_int64_le buf (off + (8 * i))
        (Int64.bits_of_float (Float.Array.unsafe_get a i))
    done
  | 8, Endian.Big ->
    for i = 0 to count - 1 do
      Bytes.set_int64_be buf (off + (8 * i))
        (Int64.bits_of_float (Float.Array.unsafe_get a i))
    done
  | _, Endian.Little ->
    for i = 0 to count - 1 do
      Bytes.set_int32_le buf (off + (4 * i))
        (Int32.bits_of_float (Float.Array.unsafe_get a i))
    done
  | _, Endian.Big ->
    for i = 0 to count - 1 do
      Bytes.set_int32_be buf (off + (4 * i))
        (Int32.bits_of_float (Float.Array.unsafe_get a i))
    done

(** [convert_from_buffer t kind order ~src ~src_off ~src_size ~size addr]
    stores the [src_size]-byte number at [src.[src_off]], held in
    [order], as a [size]-byte number in [t]'s byte order at [addr]
    (see {!Endian.convert}). *)
let convert_from_buffer t kind order ~src ~src_off ~src_size ~size addr =
  let off = offset_of_addr t addr size in
  Endian.convert kind order src ~src_off ~src_size t.abi.Abi.endianness
    t.arena ~dst_off:off ~dst_size:size

(** [swap_from_buffer t ~src ~src_off ~size ~count addr] copies [count]
    contiguous [size]-byte values to [addr], reversing each one's bytes. *)
let swap_from_buffer t ~src ~src_off ~size ~count addr =
  let off = offset_of_addr t addr (size * count) in
  Endian.swap_blit ~src ~src_off ~dst:t.arena ~dst_off:off ~size ~count

(* ---- pointers ---- *)

let pointer_size t = Abi.size_of t.abi Abi.Pointer

let read_pointer t addr =
  let size = pointer_size t in
  Endian.read_offset t.abi.Abi.endianness t.arena
    ~off:(offset_of_addr t addr size) ~size

let write_pointer t addr target =
  let size = pointer_size t in
  Endian.write_offset t.abi.Abi.endianness t.arena
    ~off:(offset_of_addr t addr size) ~size target

(* ---- C strings ---- *)

(** [strlen t addr] is the length of the NUL-terminated string at [addr]. *)
let strlen t addr =
  let start = offset_of_addr t addr 1 in
  match Bytes.index_from t.arena start '\000' with
  | nul when nul < t.brk -> nul - start
  | _ | (exception Not_found) -> fault "unterminated string at 0x%x" addr

let read_cstring t addr =
  let len = strlen t addr in
  Bytes.sub_string t.arena (offset_of_addr t addr len) len

(** [read_chars t addr n] reads a [char[n]] buffer as C string-in-buffer
    semantics do: up to its first NUL, or all [n] bytes. *)
let read_chars t addr n =
  let off = offset_of_addr t addr n in
  let len = ref 0 in
  while !len < n && Bytes.get t.arena (off + !len) <> '\000' do
    incr len
  done;
  Bytes.sub_string t.arena off !len

(** [alloc_cstring_sub t src ~off ~len] copies [src.[off..off+len-1]]
    into the heap with a NUL terminator and returns its address. *)
let alloc_cstring_sub t src ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Memory.alloc_cstring_sub";
  let addr = alloc t ~align:1 (len + 1) in
  (* the block is zero-filled, so the terminator is already there *)
  Bytes.blit src off t.arena (addr - t.base) len;
  addr

(** [alloc_cstring t s] copies [s] into the heap with a NUL terminator and
    returns its address. *)
let alloc_cstring t s =
  alloc_cstring_sub t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(** Total bytes currently allocated — used by tests and capacity checks. *)
let allocated_bytes t = t.brk

(** [reset t] frees everything: all previously returned addresses become
    invalid. Long-running receivers reset their scratch memory between
    messages instead of leaking arena space. *)
let reset t = t.brk <- 0

(** [out_buffer t n] lends [t]'s one [n]-byte output buffer: the same
    buffer while [n] repeats, a fresh one (then kept) when it changes.
    It lives outside the arena, so {!reset} leaves it alone. *)
let out_buffer t n =
  if Bytes.length t.out <> n then t.out <- Bytes.create n;
  t.out
