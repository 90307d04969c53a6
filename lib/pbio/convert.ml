(** Receiver-side conversion from NDR wire payloads to native memory.

    When sender and receiver layouts differ (byte order, primitive widths,
    padding, pointer sizes), the receiver converts. The paper does this
    with custom routines "created on-the-fly through dynamic code
    generation"; our analogue compiles, once per (wire format, native
    format) pair, a flat *plan* — an array of low-level ops executed by a
    tight interpreter loop. A coalescing pass merges runs of
    conversion-free fields into single blits, so the homogeneous case
    degenerates to one [Blit] plus pointer fixups, i.e. the
    "directly from the transmission medium into memory" fast path. An
    array whose elements differ only in byte order compiles to one [Swap]
    (or a [Swapped] dynamic array), which reverses every element in a
    single pass — the heterogeneous counterpart of the bulk blit.

    Allocation contract: executing a plan allocates only the native
    blocks it materialises in the receiver's {!Memory.t} (the struct,
    its strings and arrays, inside the memory's arena). Every number
    moves through {!Memory.convert_from_buffer} / {!Memory.swap_from_buffer},
    which keep values unboxed; the per-op loop builds no closures; and
    {!run_sub} converts a payload in place inside a larger buffer (the
    framed message), so the receiver never copies it out.

    Field matching is by name (PBIO's restricted format evolution):
    wire-only fields are ignored; native-only fields stay zero. *)

open Omf_machine

module Decode = Omf_util.Decode

exception Field_mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Field_mismatch s)) fmt

type count_src =
  | Wire_field of { off : int; size : int }
      (** count read from the wire record (relative to current src base) *)

type op =
  | Blit of { s_off : int; d_off : int; len : int }
      (** verbatim copy: layouts and byte order agree over this range *)
  | Swap of { s_off : int; d_off : int; size : int; count : int }
      (** [count] packed [size]-byte values whose only difference is byte
          order: each one's bytes reversed, in one pass *)
  | Num of {
      s_off : int;
      s_size : int;
      d_off : int;
      d_size : int;
      kind : Endian.kind;
    }
  | Str of { s_off : int; d_off : int }
      (** string pointer slot: wire offset -> fresh heap block *)
  | Loop of {
      count : int;
      s_off : int;
      d_off : int;
      s_stride : int;
      d_stride : int;
      body : op array;
    }  (** inline (fixed) array whose elements need per-element work *)
  | Keep_zero  (** a native field the wire does not fill: no blit spans it *)
  | Var_array of {
      s_slot : int;
      d_slot : int;
      count : count_src;
      s_stride : int;
      d_stride : int;
      d_align : int;
      elems : elems;
    }

(** How a dynamic array's elements move. *)
and elems =
  | Each of op array  (** the element-relative plan, run per element *)
  | Copy of int
      (** every element is a verbatim copy of this many bytes: the whole
          array is one blit *)
  | Swapped of int
      (** every element is one value of this width in the other byte
          order: the whole array is one swap *)

type t = {
  wire_name : string;
  wire_endian : Endian.order;
  wire_ptr_size : int;
  dst_size : int;
  dst_align : int;
  ops : op array;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let num_kind_of (wf : Format.rfield) (nf : Format.rfield) : Endian.kind =
  match (wf.Format.rf_elem, nf.Format.rf_elem) with
  | Format.Rfloat _, Format.Rfloat _ -> Endian.Ieee
  | Format.Rint { signed; _ }, Format.Rint _ ->
    if signed then Endian.Signed else Endian.Unsigned
  | Format.Rchar, Format.Rchar -> Endian.Unsigned
  | _ ->
    mismatch "field %S: wire and native element kinds disagree" nf.Format.rf_name

let elem_class = function
  | Format.Rint _ -> `Num
  | Format.Rfloat _ -> `Num
  | Format.Rchar -> `Num
  | Format.Rstring -> `String
  | Format.Rnested _ -> `Nested

(* Offset all ops in a compiled sub-plan; used to splice nested structs
   inline into the parent plan (flat plans run faster than recursion).
   Loop / Var_array bodies are element-relative and are left untouched. *)
let offset_ops (ops : op array) ~ds ~dd : op array =
  Array.map
    (function
      | Blit b -> Blit { b with s_off = b.s_off + ds; d_off = b.d_off + dd }
      | Swap w -> Swap { w with s_off = w.s_off + ds; d_off = w.d_off + dd }
      | Num n -> Num { n with s_off = n.s_off + ds; d_off = n.d_off + dd }
      | Str s -> Str { s_off = s.s_off + ds; d_off = s.d_off + dd }
      | Loop l -> Loop { l with s_off = l.s_off + ds; d_off = l.d_off + dd }
      | Keep_zero -> Keep_zero
      | Var_array v ->
        let count =
          match v.count with
          | Wire_field w -> Wire_field { w with off = w.off + ds }
        in
        Var_array { v with s_slot = v.s_slot + ds; d_slot = v.d_slot + dd; count })
    ops

(** Coalesce adjacent conversion-free ops into [Blit]s. Two consecutive
    copy-ops merge when the gap between them is the same on both sides
    (the gap is padding; copying it verbatim is harmless, exactly as a C
    [memcpy] of the whole struct would). *)
let coalesce ~(same_order : bool) (ops : op list) : op array =
  let copyable = function
    | Blit { s_off; d_off; len } -> Some (s_off, d_off, len)
    | Num { s_off; s_size; d_off; d_size; kind } ->
      (* a Num is a plain copy if sizes match and no byte-swap is needed;
         float bits copy fine when same width & order *)
      if s_size = d_size && (same_order || s_size = 1) then
        (match kind with
         | Endian.Signed | Endian.Unsigned | Endian.Ieee ->
           Some (s_off, d_off, s_size))
      else None
    | Swap _ | Str _ | Loop _ | Keep_zero | Var_array _ -> None
  in
  let rec go acc pending = function
    | [] -> (
      match pending with
      | Some (s, d, l) -> List.rev (Blit { s_off = s; d_off = d; len = l } :: acc)
      | None -> List.rev acc)
    | op :: rest -> (
      match (copyable op, pending) with
      | Some (s, d, l), None -> go acc (Some (s, d, l)) rest
      | Some (s, d, l), Some (ps, pd, pl) ->
        if s >= ps + pl && s - ps = d - pd then
          (* same relative position: extend the blit across the gap *)
          go acc (Some (ps, pd, s + l - ps)) rest
        else
          go (Blit { s_off = ps; d_off = pd; len = pl } :: acc) (Some (s, d, l)) rest
      | None, Some (ps, pd, pl) ->
        go (op :: Blit { s_off = ps; d_off = pd; len = pl } :: acc) None rest
      | None, None -> go (op :: acc) None rest)
  in
  Array.of_list (go [] None ops)

(* How a whole array of [body] elements can move at once. [Copy len]:
   [body] (already coalesced) is one verbatim copy starting at element
   offset 0 with identical strides, so the array is one blit of
   [(count-1) * stride + len] bytes (interior padding is copied
   verbatim, exactly as a C memcpy of the array would). [Swapped size]:
   [body] is one same-width number packed at the stride, which coalescing
   left a [Num] only because the byte orders differ. Otherwise
   [Each body]. *)
let elems_of ~s_stride ~d_stride (body : op array) : elems =
  if s_stride <> d_stride then Each body
  else
    match body with
    | [| Blit { s_off = 0; d_off = 0; len } |] when len <= s_stride -> Copy len
    | [| Num { s_off = 0; d_off = 0; s_size; d_size; kind = _ } |]
      when s_size = d_size && s_size = s_stride && s_size > 1 ->
      Swapped s_size
    | _ -> Each body

(* The wire field [nf] converts from: the same-named one, unless [nf]
   counts a dynamic array. Then it is the wire's count of that array (a
   control renamed between versions), or nothing when the wire lacks
   the array (it stays empty, and so does its count). *)
let wire_source ~(wire : Format.t) ~(native : Format.t) (nf : Format.rfield) =
  if nf.Format.rf_counts < 0 then Format.find_field wire nf.Format.rf_name
  else
    Array.find_map
      (fun (g : Format.rfield) ->
        match g.Format.rf_dim with
        | Format.Rvar { at; _ } when native.Format.fields.(at) == nf -> (
          match Format.find_field wire g.Format.rf_name with
          | Some { Format.rf_dim = Format.Rvar { at; _ }; _ } ->
            Some wire.Format.fields.(at)
          | _ -> None)
        | _ -> None)
      native.Format.fields

let rec compile_record ~optimize ~(wire : Format.t) ~(native : Format.t) :
    op array =
  let same_order =
    Endian.order_equal wire.Format.abi.Abi.endianness
      native.Format.abi.Abi.endianness
  in
  let ops =
    List.concat_map
      (fun (nf : Format.rfield) ->
        match wire_source ~wire ~native nf with
        | None -> [ Keep_zero ]
        | Some wf ->
          compile_field ~optimize ~wire ~native ~same_order ~wf ~nf)
      (Array.to_list native.Format.fields)
  in
  if optimize then coalesce ~same_order ops else Array.of_list ops

and compile_field ~optimize ~wire ~native ~same_order ~(wf : Format.rfield)
    ~(nf : Format.rfield) : op list =
  let s_off = wf.Format.rf_layout.Layout.offset in
  let d_off = nf.Format.rf_layout.Layout.offset in
  let s_size = wf.Format.rf_layout.Layout.elem_size in
  let d_size = nf.Format.rf_layout.Layout.elem_size in
  let scalar_ops () : op list =
    match (elem_class wf.Format.rf_elem, elem_class nf.Format.rf_elem) with
    | `Num, `Num ->
      [ Num { s_off = 0; s_size; d_off = 0; d_size; kind = num_kind_of wf nf } ]
    | `String, `String -> [ Str { s_off = 0; d_off = 0 } ]
    | `Nested, `Nested -> (
      match (wf.Format.rf_elem, nf.Format.rf_elem) with
      | Format.Rnested wn, Format.Rnested nn ->
        Array.to_list (compile_record ~optimize ~wire:wn ~native:nn)
      | _ -> assert false)
    | _ ->
      mismatch "field %S: wire is %s-like, native is %s-like"
        nf.Format.rf_name
        (match elem_class wf.Format.rf_elem with
        | `Num -> "numeric" | `String -> "string" | `Nested -> "struct")
        (match elem_class nf.Format.rf_elem with
        | `Num -> "numeric" | `String -> "string" | `Nested -> "struct")
  in
  match (wf.Format.rf_dim, nf.Format.rf_dim) with
  | Format.Rscalar, Format.Rscalar ->
    Array.to_list (offset_ops (Array.of_list (scalar_ops ())) ~ds:s_off ~dd:d_off)
  | Format.Rfixed wn, Format.Rfixed nn ->
    let count = min wn nn in
    let body =
      if optimize then coalesce ~same_order (scalar_ops ())
      else Array.of_list (scalar_ops ())
    in
    (match
       if optimize then elems_of ~s_stride:s_size ~d_stride:d_size body
       else Each body
     with
     | Copy len ->
       (* fold the whole inline array into one blit *)
       [ Blit { s_off; d_off; len = ((count - 1) * s_size) + len } ]
     | Swapped size -> [ Swap { s_off; d_off; size; count } ]
     | Each body ->
       [ Loop
           { count; s_off; d_off; s_stride = s_size; d_stride = d_size; body } ])
  | ( Format.Rvar { control = w_control; at = w_at }
    , Format.Rvar { control = n_control; at = n_at } ) ->
    let count_field = wire.Format.fields.(w_at) in
    (* the native control converts from [wire_source]: when that is not
       this array's wire count (two arrays sharing a native control,
       counted apart on the wire), the loaded count would disagree *)
    (match wire_source ~wire ~native native.Format.fields.(n_at) with
     | Some src when src == count_field -> ()
     | _ ->
       mismatch "field %S: counted by %S on the wire, and %S takes another count"
         nf.Format.rf_name w_control n_control);
    let body =
      if optimize then coalesce ~same_order (scalar_ops ())
      else Array.of_list (scalar_ops ())
    in
    let elems =
      if optimize then elems_of ~s_stride:s_size ~d_stride:d_size body
      else Each body
    in
    [ Var_array
        { s_slot = s_off; d_slot = d_off
        ; count =
            Wire_field
              { off = count_field.Format.rf_layout.Layout.offset
              ; size = count_field.Format.rf_layout.Layout.elem_size }
        ; s_stride = s_size; d_stride = d_size
        ; d_align = Format.elem_align native.Format.abi nf.Format.rf_elem; elems } ]
  | _ ->
    mismatch "field %S: wire and native dimensions disagree (fixed/var/scalar)"
      nf.Format.rf_name

let compile_with ~optimize ~(wire : Format.t) ~(native : Format.t) : t =
  let ops =
    try compile_record ~optimize ~wire ~native
    with Field_mismatch m -> mismatch "format %s: %s" native.Format.name m
  in
  { wire_name = wire.Format.name
  ; wire_endian = wire.Format.abi.Abi.endianness
  ; wire_ptr_size = Abi.size_of wire.Format.abi Abi.Pointer
  ; dst_size = native.Format.layout.Layout.size
  ; dst_align = native.Format.layout.Layout.struct_align
  ; ops }

(** [compile ~wire ~native] builds the conversion plan. Raises
    {!Field_mismatch}, naming the native format and the field, when a
    same-named field is structurally irreconcilable. *)
let compile ~wire ~native : t = compile_with ~optimize:true ~wire ~native

(** [compile_unoptimized] skips blit coalescing and bulk array copies —
    the ablation knob for measuring what those passes are worth (bench
    A2). Semantics are identical to {!compile}. *)
let compile_unoptimized ~wire ~native : t =
  compile_with ~optimize:false ~wire ~native

(** Number of primitive ops — exposed so tests can assert that the
    homogeneous plan really collapses to a single blit. *)
let op_count (t : t) : int = Array.length t.ops

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Execution reads a payload window: [plen] bytes of [buf] starting at
   [base]. Every offset below — op offsets, and the string and array
   offsets stored in the payload — is relative to the window, and is
   bounds-checked against it before the access: a fault is a
   [Decode.Error] of layer ["ndr"] at that offset. *)

let window_strlen buf ~base ~plen (woff : int) : int =
  if woff < 0 || woff >= plen then Decode.fail "ndr" woff Truncated;
  match Bytes.index_from buf (base + woff) '\000' with
  | nul when nul < base + plen -> nul - (base + woff)
  | _ | (exception Not_found) -> Decode.fail "ndr" plen Truncated

let check_window ~plen off len =
  if off < 0 || len < 0 || off > plen - len then Decode.fail "ndr" off Truncated

(** Execute [ops] over the payload window, materialising native data in
    [mem] at [d_base] (an allocated, zeroed block); [s_base] is the
    current source base within the window. *)
let rec exec_ops (plan : t) buf ~base ~plen (s_base : int) (mem : Memory.t)
    (d_base : int) (ops : op array) : unit =
  for i = 0 to Array.length ops - 1 do
    exec_op plan buf ~base ~plen s_base mem d_base (Array.unsafe_get ops i)
  done

and exec_op plan buf ~base ~plen s_base mem d_base op =
  let we = plan.wire_endian in
  let wp = plan.wire_ptr_size in
  match op with
  | Blit { s_off; d_off; len } ->
    check_window ~plen (s_base + s_off) len;
    Memory.blit_from_buffer mem ~src:buf ~src_off:(base + s_base + s_off) ~len
      (d_base + d_off)
  | Swap { s_off; d_off; size; count } ->
    check_window ~plen (s_base + s_off) (size * count);
    Memory.swap_from_buffer mem ~src:buf ~src_off:(base + s_base + s_off) ~size
      ~count (d_base + d_off)
  | Num { s_off; s_size; d_off; d_size; kind } ->
    check_window ~plen (s_base + s_off) s_size;
    Memory.convert_from_buffer mem kind we ~src:buf
      ~src_off:(base + s_base + s_off) ~src_size:s_size ~size:d_size
      (d_base + d_off)
  | Str { s_off; d_off } ->
    let slot = s_base + s_off in
    check_window ~plen slot wp;
    let woff = Endian.read_offset we buf ~off:(base + slot) ~size:wp in
    if woff = 0 then Memory.write_pointer mem (d_base + d_off) Memory.null
    else begin
      let len = window_strlen buf ~base ~plen woff in
      Memory.write_pointer mem (d_base + d_off)
        (Memory.alloc_cstring_sub mem buf ~off:(base + woff) ~len)
    end
  | Keep_zero -> ()
  | Loop { count; s_off; d_off; s_stride; d_stride; body } ->
    for i = 0 to count - 1 do
      exec_ops plan buf ~base ~plen
        (s_base + s_off + (i * s_stride))
        mem
        (d_base + d_off + (i * d_stride))
        body
    done
  | Var_array { s_slot; d_slot; count; s_stride; d_stride; d_align; elems } ->
    let n =
      match count with
      | Wire_field { off; size } ->
        check_window ~plen (s_base + off) size;
        let n = Endian.read_count we buf ~off:(base + s_base + off) ~size in
        if n < 0 || n > 0x7FFFFFFF then Decode.fail "ndr" (s_base + off) Too_long;
        n
    in
    if n = 0 then Memory.write_pointer mem (d_base + d_slot) Memory.null
    else begin
      let slot = s_base + s_slot in
      check_window ~plen slot wp;
      let woff = Endian.read_offset we buf ~off:(base + slot) ~size:wp in
      check_window ~plen woff (n * s_stride);
      let block = Memory.alloc mem ~align:d_align (n * d_stride) in
      Memory.write_pointer mem (d_base + d_slot) block;
      match elems with
      | Copy len ->
        (* conversion-free elements: one blit for the whole array *)
        Memory.blit_from_buffer mem ~src:buf ~src_off:(base + woff)
          ~len:(((n - 1) * s_stride) + len)
          block
      | Swapped size ->
        Memory.swap_from_buffer mem ~src:buf ~src_off:(base + woff) ~size
          ~count:n block
      | Each body ->
        for i = 0 to n - 1 do
          exec_ops plan buf ~base ~plen
            (woff + (i * s_stride))
            mem
            (block + (i * d_stride))
            body
        done
    end

(** [run_sub plan buf ~off ~len mem] converts the payload held in
    [buf.[off..off+len-1]] in place — typically a framed message, with
    [off] the header length — allocating the destination struct and
    returning its address. *)
let run_sub (plan : t) (buf : bytes) ~off ~len (mem : Memory.t) : int =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Convert.run_sub: window escapes the buffer";
  let d_base = Memory.alloc mem ~align:plan.dst_align (max plan.dst_size 1) in
  exec_ops plan buf ~base:off ~plen:len 0 mem d_base plan.ops;
  d_base

(** [run plan payload mem] allocates the destination struct and executes
    the plan, returning the new struct's address. *)
let run (plan : t) (payload : bytes) (mem : Memory.t) : int =
  run_sub plan payload ~off:0 ~len:(Bytes.length payload) mem

(* ------------------------------------------------------------------ *)
(* Interpreted baseline                                                 *)
(* ------------------------------------------------------------------ *)

(** Per-record metadata interpretation: no compiled plan; every record
    walks the two format descriptions, looking fields up by name. This is
    the strawman the paper's dynamic code generation is measured against
    (bench E2). Semantics are identical to [compile]+[run]. *)
let interpret ~(wire : Format.t) ~(native : Format.t) (payload : bytes)
    (mem : Memory.t) : int =
  let we = wire.Format.abi.Abi.endianness in
  let wp = Abi.size_of wire.Format.abi Abi.Pointer in
  let native_abi = native.Format.abi in
  let rec record (wire : Format.t) (native : Format.t) s_base d_base =
    Array.iter
      (fun (nf : Format.rfield) ->
        match wire_source ~wire ~native nf with
        | None -> ()
        | Some wf -> field wire wf nf s_base d_base)
      native.Format.fields
  and field (wire : Format.t) (wf : Format.rfield) (nf : Format.rfield)
      s_base d_base =
    let s_off = s_base + wf.Format.rf_layout.Layout.offset in
    let d_off = d_base + nf.Format.rf_layout.Layout.offset in
    let s_size = wf.Format.rf_layout.Layout.elem_size in
    let d_size = nf.Format.rf_layout.Layout.elem_size in
    let scalar s d =
      match (wf.Format.rf_elem, nf.Format.rf_elem) with
      | Format.Rint { signed; _ }, Format.Rint _ ->
        let v =
          if signed then Endian.read_int we payload ~off:s ~size:s_size
          else Endian.read_uint we payload ~off:s ~size:s_size
        in
        Memory.write_int mem d ~size:d_size v
      | Format.Rfloat _, Format.Rfloat _ ->
        Memory.write_float mem d ~size:d_size
          (Endian.read_float we payload ~off:s ~size:s_size)
      | Format.Rchar, Format.Rchar ->
        Memory.write_uint mem d ~size:1
          (Endian.read_uint we payload ~off:s ~size:1)
      | Format.Rstring, Format.Rstring ->
        let woff = Int64.to_int (Endian.read_uint we payload ~off:s ~size:wp) in
        if woff = 0 then Memory.write_pointer mem d Memory.null
        else begin
          let len =
            window_strlen payload ~base:0 ~plen:(Bytes.length payload) woff
          in
          Memory.write_pointer mem d
            (Memory.alloc_cstring mem (Bytes.sub_string payload woff len))
        end
      | Format.Rnested wn, Format.Rnested nn -> record wn nn s d
      | _ -> mismatch "field %S: incompatible kinds" nf.Format.rf_name
    in
    match (wf.Format.rf_dim, nf.Format.rf_dim) with
    | Format.Rscalar, Format.Rscalar -> scalar s_off d_off
    | Format.Rfixed wn, Format.Rfixed nn ->
      for i = 0 to min wn nn - 1 do
        scalar (s_off + (i * s_size)) (d_off + (i * d_size))
      done
    | Format.Rvar { control = w_control; _ }, Format.Rvar _ ->
      let cf =
        match Format.find_field wire w_control with
        | Some cf -> cf
        | None -> assert false
      in
      let n =
        Int64.to_int
          (Endian.read_int we payload
             ~off:(s_base + cf.Format.rf_layout.Layout.offset)
             ~size:cf.Format.rf_layout.Layout.elem_size)
      in
      if n = 0 then Memory.write_pointer mem d_off Memory.null
      else begin
        let woff =
          Int64.to_int (Endian.read_uint we payload ~off:s_off ~size:wp)
        in
        check_window ~plen:(Bytes.length payload) woff (n * s_size);
        let align = Format.elem_align native_abi nf.Format.rf_elem in
        let block = Memory.alloc mem ~align (n * d_size) in
        Memory.write_pointer mem d_off block;
        for i = 0 to n - 1 do
          scalar (woff + (i * s_size)) (block + (i * d_size))
        done
      end
    | _ -> mismatch "field %S: dimensions disagree" nf.Format.rf_name
  in
  let d_base =
    Memory.alloc mem
      ~align:native.Format.layout.Layout.struct_align
      (max native.Format.layout.Layout.size 1)
  in
  record wire native 0 d_base;
  d_base
