(** Simulated process address space: program data exists as genuine
    native byte images under the owning {!Abi.t} — structs with compiler
    padding, strings and dynamic arrays as heap blocks referenced by
    pointer-sized addresses. Address 0 is the null pointer. *)

type t

val null : int

val create : Abi.t -> t
(** An empty heap; its arena starts at 4 KiB and doubles as it fills. *)

val abi : t -> Abi.t

exception Fault of string
(** Raised on null dereference, out-of-bounds access, or an unterminated
    string — never silent corruption. *)

val alloc : t -> align:int -> int -> int
(** [alloc t ~align size]: a fresh zero-initialised block of [size]
    bytes at a multiple of [align] (values below 1 count as 1); returns
    its simulated address. A size of 0 is allowed. Allocates nothing on
    the OCaml heap. *)

(** {1 Raw byte access} *)

val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit
val write_string : t -> int -> string -> unit
val blit_to_buffer : t -> int -> int -> dst:bytes -> dst_off:int -> unit
val blit_from_buffer : t -> src:bytes -> src_off:int -> len:int -> int -> unit

(** {1 Typed access} (in the owner's byte order)

    Reads box only the value they return; writes and the
    buffer-to-memory conversions allocate nothing. *)

val read_uint : t -> int -> size:int -> int64
val read_int : t -> int -> size:int -> int64
val read_count : t -> int -> size:int -> int
(** A signed field that sizes an array: its value when it lies in
    [0, max_int], else -1 ({!Endian.read_count}). *)

val write_uint : t -> int -> size:int -> int64 -> unit
val write_int : t -> int -> size:int -> int64 -> unit

val write_count : t -> int -> size:int -> int -> unit
(** Store a non-negative [int] (an array's element count) as a
    [size]-byte integer: {!write_int} of [Int64.of_int n] without the
    boxed intermediate. *)

val read_char : t -> int -> char
val write_char : t -> int -> char -> unit
(** One byte, as a C [char]. *)

val read_float : t -> int -> size:int -> float
val write_float : t -> int -> size:int -> float -> unit

(** {1 Float arrays}

    A C [float[n]] or [double[n]] moves as one unboxed [floatarray]:
    bounds are checked once for the whole span, so an array outside the
    arena raises {!Fault} naming [[addr, +size*count)] before any element
    moves. Neither allocates beyond the array [read_floats] returns.
    [size] must be 4 or 8 ([Invalid_argument] otherwise). *)

val read_floats : t -> int -> size:int -> count:int -> floatarray
(** [count] contiguous [size]-byte floats at the address, in the owner's
    byte order; 4-byte floats widen exactly. *)

val write_floats : t -> int -> size:int -> floatarray -> unit
(** Store the array as contiguous [size]-byte floats at the address;
    4-byte stores round to single precision as a C [float] assignment
    does. *)

val convert_from_buffer :
  t -> Endian.kind -> Endian.order -> src:bytes -> src_off:int ->
  src_size:int -> size:int -> int -> unit
(** Store the [src_size]-byte number at [src.[src_off]], held in the given
    byte order, as a [size]-byte number in the owner's byte order at the
    address ({!Endian.convert}). *)

val swap_from_buffer :
  t -> src:bytes -> src_off:int -> size:int -> count:int -> int -> unit
(** Copy [count] contiguous [size]-byte values to the address, reversing
    each one's bytes ({!Endian.swap_blit}). *)

(** {1 Pointers and C strings} *)

val pointer_size : t -> int
val read_pointer : t -> int -> int
val write_pointer : t -> int -> int -> unit

val strlen : t -> int -> int
(** Length of the NUL-terminated string at the address. *)

val read_cstring : t -> int -> string

val read_chars : t -> int -> int -> string
(** [read_chars t addr n] reads a [char[n]] buffer with C
    string-in-buffer semantics: up to its first NUL, or all [n] bytes. *)

val alloc_cstring : t -> string -> int
(** Copies the string into the heap with a NUL terminator. *)

val alloc_cstring_sub : t -> bytes -> off:int -> len:int -> int
(** [alloc_cstring_sub t src ~off ~len] copies that range of [src] into
    the heap with a NUL terminator. *)

(** {1 Lifecycle} *)

val allocated_bytes : t -> int

val reset : t -> unit
(** Frees everything; previously returned addresses become invalid.
    Long-running receivers reset scratch memory between messages. *)

val out_buffer : t -> int -> bytes
(** [out_buffer t n] lends an [n]-byte buffer owned by [t], outside the
    arena (so {!reset} keeps it): the same buffer on every call while
    [n] repeats, a fresh one, then kept, when [n] changes. Its contents
    are the caller's to overwrite, and valid only until the next call
    on [t]: [Pbio.message] builds each message in it. *)
