(** XDR (RFC 1014) codec: the "commercial platform" baseline.

    XDR defines a single canonical wire format — big-endian, 4-byte basic
    units — and *both* sides convert: the sender translates its native
    bytes into the canonical form, the receiver translates the canonical
    form into its native bytes. NDR's claim to beat "XDR-based data
    representations" by >= 50% rests on skipping the sender half entirely
    and most of the receiver half between like machines, so this codec
    deliberately performs the classic work, memory image to memory image.

    Era-faithful type mapping (RFC 1014, pre-"hyper" extensions used only
    for [long long]):
    - char, short, int, long -> 4-byte big-endian (values must fit; C
      longs were 32-bit on the paper's platforms);
    - long long               -> 8-byte big-endian;
    - float / double          -> IEEE 4 / 8 bytes big-endian;
    - string                  -> u32 length + bytes + pad to 4;
    - char[N]                 -> opaque: N bytes + pad to 4;
    - T[N]                    -> N elements in sequence;
    - T[count_field]          -> u32 count + elements (the separate C
      control field is also encoded where declared, as a plain int).

    Unlike NDR, XDR-style stubs assume both parties compiled the same
    interface definition: there is no per-message format negotiation and
    no tolerance for format evolution. *)

open Omf_machine
open Omf_pbio
module Decode = Omf_util.Decode

let unit_of_prim = function
  | Abi.Longlong | Abi.Ulonglong -> 8
  | Abi.Char | Abi.Uchar | Abi.Short | Abi.Ushort | Abi.Int | Abi.Uint
  | Abi.Long | Abi.Ulong ->
    4
  | Abi.Float -> 4
  | Abi.Double -> 8
  | Abi.Pointer -> 4

let pad4 n = (n + 3) land lnot 3

(* ------------------------------------------------------------------ *)
(* Encoding (sender-side conversion)                                    *)
(* ------------------------------------------------------------------ *)

let emit_uint buf ~size v =
  let b = Bytes.create size in
  Endian.write_uint Endian.Big b ~off:0 ~size v;
  Buffer.add_bytes buf b

let emit_pad buf n =
  for _ = 1 to pad4 n - n do
    Buffer.add_char buf '\000'
  done

let emit_string buf s =
  emit_uint buf ~size:4 (Int64.of_int (String.length s));
  Buffer.add_string buf s;
  emit_pad buf (String.length s)

let read_count mem (fmt : Format.t) addr at =
  let cf = fmt.Format.fields.(at) in
  Int64.to_int
    (Memory.read_int mem
       (addr + cf.Format.rf_layout.Layout.offset)
       ~size:cf.Format.rf_layout.Layout.elem_size)

let rec encode_record buf mem (fmt : Format.t) addr =
  Array.iter
    (fun (f : Format.rfield) ->
      let slot = addr + f.Format.rf_layout.Layout.offset in
      let elem_size = f.Format.rf_layout.Layout.elem_size in
      let emit_scalar slot =
        match f.Format.rf_elem with
        | Format.Rint { prim; signed } ->
          let v =
            if signed then Memory.read_int mem slot ~size:elem_size
            else Memory.read_uint mem slot ~size:elem_size
          in
          emit_uint buf ~size:(unit_of_prim prim) v
        | Format.Rfloat prim ->
          let v = Memory.read_float mem slot ~size:elem_size in
          let size = unit_of_prim prim in
          let b = Bytes.create size in
          Endian.write_float Endian.Big b ~off:0 ~size v;
          Buffer.add_bytes buf b
        | Format.Rchar -> emit_uint buf ~size:4 (Memory.read_uint mem slot ~size:1)
        | Format.Rstring ->
          let ptr = Memory.read_pointer mem slot in
          emit_string buf
            (if ptr = Memory.null then "" else Memory.read_cstring mem ptr)
        | Format.Rnested nested -> encode_record buf mem nested slot
      in
      match (f.Format.rf_dim, f.Format.rf_elem) with
      | Format.Rscalar, _ -> emit_scalar slot
      | Format.Rfixed n, Format.Rchar ->
        (* opaque fixed *)
        Buffer.add_bytes buf (Memory.read_bytes mem slot n);
        emit_pad buf n
      | Format.Rfixed n, _ ->
        for i = 0 to n - 1 do
          emit_scalar (slot + (i * elem_size))
        done
      | Format.Rvar { at; _ }, _ ->
        let count = read_count mem fmt addr at in
        emit_uint buf ~size:4 (Int64.of_int count);
        let ptr = Memory.read_pointer mem slot in
        if count > 0 && ptr = Memory.null then
          raise
            (Encode.Encode_error
               (Printf.sprintf "format %s: %S count %d with null data"
                  fmt.Format.name f.Format.rf_name count));
        (match f.Format.rf_elem with
        | Format.Rchar ->
          if count > 0 then
            Buffer.add_bytes buf (Memory.read_bytes mem ptr count);
          emit_pad buf count
        | _ ->
          for i = 0 to count - 1 do
            emit_scalar (ptr + (i * elem_size))
          done))
    fmt.Format.fields

(** [encode mem fmt addr] converts the native struct at [addr] to XDR. *)
let encode (mem : Memory.t) (fmt : Format.t) (addr : int) : bytes =
  let buf = Buffer.create (Format.struct_size fmt * 2) in
  encode_record buf mem fmt addr;
  Buffer.to_bytes buf

(* ------------------------------------------------------------------ *)
(* Decoding (receiver-side conversion)                                  *)
(* ------------------------------------------------------------------ *)

let take_uint c ~size =
  Endian.read_uint Endian.Big (Decode.buffer c) ~off:(Decode.take c size) ~size

let take_int c ~size =
  Endian.read_int Endian.Big (Decode.buffer c) ~off:(Decode.take c size) ~size

let take_float c ~size =
  Endian.read_float Endian.Big (Decode.buffer c) ~off:(Decode.take c size) ~size

let take_bytes c n = Bytes.sub (Decode.buffer c) (Decode.take c n) n
let skip_pad c n = ignore (Decode.take c (pad4 n - n))

let take_string c =
  let s = Decode.string c (Decode.u32 c) in
  skip_pad c (String.length s);
  s

let rec decode_record c mem (fmt : Format.t) addr =
  Array.iter
    (fun (f : Format.rfield) ->
      let slot = addr + f.Format.rf_layout.Layout.offset in
      let elem_size = f.Format.rf_layout.Layout.elem_size in
      let take_scalar slot =
        match f.Format.rf_elem with
        | Format.Rint { prim; signed } ->
          let size = unit_of_prim prim in
          let v = if signed then take_int c ~size else take_uint c ~size in
          Memory.write_int mem slot ~size:elem_size v
        | Format.Rfloat prim ->
          Memory.write_float mem slot ~size:elem_size
            (take_float c ~size:(unit_of_prim prim))
        | Format.Rchar -> Memory.write_uint mem slot ~size:1 (take_uint c ~size:4)
        | Format.Rstring ->
          Memory.write_pointer mem slot (Memory.alloc_cstring mem (take_string c))
        | Format.Rnested nested -> decode_record c mem nested slot
      in
      match (f.Format.rf_dim, f.Format.rf_elem) with
      | Format.Rscalar, Format.Rint _ when f.Format.rf_recount ->
        (* an array before it put its own count here: they must agree *)
        let count = Memory.read_count mem slot ~size:elem_size in
        let at = Decode.offset c in
        take_scalar slot;
        if Memory.read_count mem slot ~size:elem_size <> count then
          Decode.fail "xdr" at Inconsistent
      | Format.Rscalar, _ -> take_scalar slot
      | Format.Rfixed n, Format.Rchar ->
        Memory.write_bytes mem slot (take_bytes c n);
        skip_pad c n
      | Format.Rfixed n, _ ->
        for i = 0 to n - 1 do
          take_scalar (slot + (i * elem_size))
        done
      | Format.Rvar { at = control; _ }, _ -> (
        let at = Decode.offset c in
        let count = Decode.u32 c in
        if count > Decode.remaining c then Decode.fail "xdr" at Too_long;
        (* the control field travels too, and must hold this count *)
        let cf = fmt.Format.fields.(control) in
        let cslot = addr + cf.Format.rf_layout.Layout.offset
        and size = cf.Format.rf_layout.Layout.elem_size in
        if not f.Format.rf_recount then Memory.write_count mem cslot ~size count
        else if Memory.read_count mem cslot ~size <> count then
          Decode.fail "xdr" at Inconsistent;
        if count = 0 then Memory.write_pointer mem slot Memory.null
        else
          match f.Format.rf_elem with
          | Format.Rchar ->
            let block = Memory.alloc mem ~align:1 count in
            Memory.write_bytes mem block (take_bytes c count);
            skip_pad c count;
            Memory.write_pointer mem slot block
          | _ ->
            let align = Format.elem_align (Memory.abi mem) f.Format.rf_elem in
            let block = Memory.alloc mem ~align (count * elem_size) in
            Memory.write_pointer mem slot block;
            for i = 0 to count - 1 do
              take_scalar (block + (i * elem_size))
            done))
    fmt.Format.fields

(** [decode fmt mem data] parses XDR [data] (produced from the *same
    interface declaration* — classic stub assumption) into a fresh native
    struct in [mem], returning its address. *)
let decode (fmt : Format.t) (mem : Memory.t) (data : bytes) : int =
  let c = Decode.cursor "xdr" data 0 (Bytes.length data) in
  let addr =
    Memory.alloc mem
      ~align:fmt.Format.layout.Layout.struct_align
      (max (Format.struct_size fmt) 1)
  in
  decode_record c mem fmt addr;
  if Decode.remaining c > 0 then Decode.fail_at c Inconsistent;
  addr

(* ---- value-level conveniences (tests, examples) ---- *)

let encode_value (abi : Abi.t) (fmt : Format.t) (v : Value.t) : bytes =
  let mem = Memory.create abi in
  encode mem fmt (Native.store mem fmt v)

let decode_value (abi : Abi.t) (fmt : Format.t) (data : bytes) : Value.t =
  let mem = Memory.create abi in
  Native.load mem fmt (decode fmt mem data)
