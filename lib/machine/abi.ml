(** Machine / compiler ABI descriptions.

    An [Abi.t] captures everything the paper's xml2wire derives from "the
    compiler in use and the host architecture" (section 3): byte order and
    the size and alignment of each C primitive type. Registering the same
    message format under two different ABIs yields two different native
    layouts — which is exactly the heterogeneity that NDR's receiver-side
    conversion has to bridge.

    The profiles below follow the System V psABI conventions for each
    processor (i386's 4-byte alignment of 8-byte scalars included). *)

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

let all_prims =
  [ Char; Uchar; Short; Ushort; Int; Uint; Long; Ulong; Longlong; Ulonglong
  ; Float; Double; Pointer ]

let prim_name = function
  | Char -> "char"
  | Uchar -> "unsigned char"
  | Short -> "short"
  | Ushort -> "unsigned short"
  | Int -> "int"
  | Uint -> "unsigned int"
  | Long -> "long"
  | Ulong -> "unsigned long"
  | Longlong -> "long long"
  | Ulonglong -> "unsigned long long"
  | Float -> "float"
  | Double -> "double"
  | Pointer -> "void*"

let prim_signed = function
  | Char | Short | Int | Long | Longlong -> true
  | Uchar | Ushort | Uint | Ulong | Ulonglong | Float | Double | Pointer ->
    false

type t = {
  name : string;
  endianness : Endian.order;
  short_size : int;
  int_size : int;
  long_size : int;
  longlong_size : int;
  pointer_size : int;
  (* Alignment cap: a primitive's alignment is min(size, cap). 8 for
     natural alignment (SPARC, ARM, POWER, Alpha), 4 on i386 (8-byte
     scalars align to 4), 2 on m68k (everything wider aligns to 2). *)
  align_cap : int;
}

(** [size_of abi p] is [sizeof(p)] under [abi]. *)
let size_of t = function
  | Char | Uchar -> 1
  | Short | Ushort -> t.short_size
  | Int | Uint -> t.int_size
  | Long | Ulong -> t.long_size
  | Longlong | Ulonglong -> t.longlong_size
  | Float -> 4
  | Double -> 8
  | Pointer -> t.pointer_size

(** [align_of abi p] is the required alignment of [p] under [abi]:
    natural alignment, capped at [abi.align_cap]. *)
let align_of t p = min (size_of t p) t.align_cap

(* ------------------------------------------------------------------ *)
(* Standard profiles.                                                  *)
(* ------------------------------------------------------------------ *)

let x86_32 =
  { name = "x86-32"; endianness = Little; short_size = 2; int_size = 4
  ; long_size = 4; longlong_size = 8; pointer_size = 4; align_cap = 4 }

let x86_64 =
  { name = "x86-64"; endianness = Little; short_size = 2; int_size = 4
  ; long_size = 8; longlong_size = 8; pointer_size = 8; align_cap = 8 }

let sparc_32 =
  { name = "sparc-32"; endianness = Big; short_size = 2; int_size = 4
  ; long_size = 4; longlong_size = 8; pointer_size = 4; align_cap = 8 }

let sparc_64 =
  { name = "sparc-64"; endianness = Big; short_size = 2; int_size = 4
  ; long_size = 8; longlong_size = 8; pointer_size = 8; align_cap = 8 }

let arm_32 =
  { name = "arm-32"; endianness = Little; short_size = 2; int_size = 4
  ; long_size = 4; longlong_size = 8; pointer_size = 4; align_cap = 8 }

let power_64 =
  { name = "power-64"; endianness = Big; short_size = 2; int_size = 4
  ; long_size = 8; longlong_size = 8; pointer_size = 8; align_cap = 8 }

let alpha_64 =
  { name = "alpha-64"; endianness = Little; short_size = 2; int_size = 4
  ; long_size = 8; longlong_size = 8; pointer_size = 8; align_cap = 8 }

let m68k_32 =
  (* classic 68k System V: big-endian, 32-bit, everything aligns to 2 *)
  { name = "m68k-32"; endianness = Big; short_size = 2; int_size = 4
  ; long_size = 4; longlong_size = 8; pointer_size = 4; align_cap = 2 }

let mips_32 =
  (* o32: big-endian ILP32 with naturally aligned 8-byte scalars *)
  { name = "mips-32"; endianness = Big; short_size = 2; int_size = 4
  ; long_size = 4; longlong_size = 8; pointer_size = 4; align_cap = 8 }

let all =
  [ x86_32; x86_64; sparc_32; sparc_64; arm_32; power_64; alpha_64; m68k_32
  ; mips_32 ]

(** The ABI the examples treat as "this machine". *)
let native = x86_64

let find_by_name name = List.find_opt (fun t -> String.equal t.name name) all

(* ------------------------------------------------------------------ *)
(* Fingerprints: the compact on-the-wire identification of an ABI.     *)
(* Format descriptors carry it, so a receiver rebuilds the sender's    *)
(* layout and compiles its conversion plan once per connection.        *)
(* ------------------------------------------------------------------ *)

(** A fingerprint is 6 bytes:
    endianness, short size, int size, long size, pointer size, cap. *)
let fingerprint_length = 6

let fingerprint t : string =
  let e = match t.endianness with Endian.Little -> 0 | Endian.Big -> 1 in
  [ e; t.short_size; t.int_size; t.long_size; t.pointer_size; t.align_cap ]
  |> List.to_seq |> Seq.map Char.chr |> String.of_seq

exception Bad_fingerprint of string

(** [of_fingerprint s] reconstructs an ABI from its fingerprint. The
    reconstructed profile carries a synthetic name when it matches no
    known profile. Raises [Bad_fingerprint] on malformed input. *)
let of_fingerprint (s : string) : t =
  if String.length s <> fingerprint_length then
    raise (Bad_fingerprint "wrong length");
  let byte i = Char.code s.[i] in
  let endianness =
    match byte 0 with
    | 0 -> Endian.Little
    | 1 -> Endian.Big
    | _ -> raise (Bad_fingerprint "endianness byte")
  in
  let check_size what v =
    if v <> 2 && v <> 4 && v <> 8 then
      raise (Bad_fingerprint (what ^ " size"))
  in
  let short_size = byte 1 and int_size = byte 2 and long_size = byte 3 in
  let pointer_size = byte 4 and align_cap = byte 5 in
  check_size "short" short_size;
  check_size "int" int_size;
  check_size "long" long_size;
  check_size "pointer" pointer_size;
  if align_cap <> 1 && align_cap <> 2 && align_cap <> 4 && align_cap <> 8 then
    raise (Bad_fingerprint "alignment cap");
  let candidate =
    { name = "wire-abi"; endianness; short_size; int_size; long_size
    ; longlong_size = 8; pointer_size; align_cap }
  in
  match
    List.find_opt (fun k -> String.equal (fingerprint k) s) all
  with
  | Some known -> known
  | None -> candidate

(** Two ABIs are layout-equal when every primitive has the same size and
    alignment and byte order agrees: then a structure registered under one
    has a byte-identical image under the other. *)
let layout_equal a b =
  Endian.order_equal a.endianness b.endianness
  && List.for_all
       (fun p -> size_of a p = size_of b p && align_of a p = align_of b p)
       all_prims
