(** Binary serialisation of format descriptors — the "efficiently
    represented meta-information that identifies the precise formats of
    transmitted data". A descriptor travels once per (connection, format)
    when a sender first uses a format (format negotiation); thereafter
    message headers carry only the 4-byte format id.

    The descriptor records the *sender-side physical layout* (offsets and
    element sizes under the sender ABI) plus the logical declaration, so
    the receiver can compile a conversion plan without sharing any source
    code with the sender. Nested formats are embedded recursively, outer
    format last, so decoding can resolve references in order. *)

open Omf_machine
module Decode = Omf_util.Decode

(* the layout version of the NDR protocol, descriptors and the messages
   that follow them: checked once per connection, here
   (doc/PROTOCOLS.md §3) *)
let magic = "OMD2"

(* ---- primitive emitters: big-endian, length-prefixed strings ---- *)

let emit_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let emit_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

let emit_string b s =
  emit_u32 b (String.length s);
  Buffer.add_string b s

let take_string c = Decode.string c (Decode.u32 c)

(* ---- element/dimension tags ---- *)

let prim_code = function
  | Abi.Char -> 0 | Abi.Uchar -> 1 | Abi.Short -> 2 | Abi.Ushort -> 3
  | Abi.Int -> 4 | Abi.Uint -> 5 | Abi.Long -> 6 | Abi.Ulong -> 7
  | Abi.Longlong -> 8 | Abi.Ulonglong -> 9 | Abi.Float -> 10
  | Abi.Double -> 11 | Abi.Pointer -> 12

let take_prim c =
  match Decode.u8 c with
  | 0 -> Abi.Char | 1 -> Abi.Uchar | 2 -> Abi.Short | 3 -> Abi.Ushort
  | 4 -> Abi.Int | 5 -> Abi.Uint | 6 -> Abi.Long | 7 -> Abi.Ulong
  | 8 -> Abi.Longlong | 9 -> Abi.Ulonglong | 10 -> Abi.Float
  | 11 -> Abi.Double | 12 -> Abi.Pointer
  | _ -> Decode.fail_at c Bad_tag

let emit_elem b = function
  | Ftype.Int_t p ->
    emit_u8 b 0;
    emit_u8 b (prim_code p)
  | Ftype.Float_t p ->
    emit_u8 b 1;
    emit_u8 b (prim_code p)
  | Ftype.Char_t -> emit_u8 b 2
  | Ftype.String_t -> emit_u8 b 3
  | Ftype.Named_t n ->
    emit_u8 b 4;
    emit_string b n

let take_elem c : Ftype.elem =
  match Decode.u8 c with
  | 0 -> Ftype.Int_t (take_prim c)
  | 1 -> Ftype.Float_t (take_prim c)
  | 2 -> Ftype.Char_t
  | 3 -> Ftype.String_t
  | 4 -> Ftype.Named_t (take_string c)
  | _ -> Decode.fail_at c Bad_tag

let emit_dim b = function
  | Ftype.Scalar -> emit_u8 b 0
  | Ftype.Fixed n ->
    emit_u8 b 1;
    emit_u32 b n
  | Ftype.Var control ->
    emit_u8 b 2;
    emit_string b control

let take_dim c : Ftype.dim =
  match Decode.u8 c with
  | 0 -> Ftype.Scalar
  | 1 -> Ftype.Fixed (Decode.u32 c)
  | 2 -> Ftype.Var (take_string c)
  | _ -> Decode.fail_at c Bad_tag

(* ---- formats ---- *)

let rec collect_nested acc (fmt : Format.t) : Format.t list =
  (* dependency order: nested first, dedup by name *)
  let acc =
    Array.fold_left
      (fun acc (f : Format.rfield) ->
        match f.Format.rf_elem with
        | Format.Rnested nested -> collect_nested acc nested
        | _ -> acc)
      acc fmt.Format.fields
  in
  if List.exists (fun (g : Format.t) -> String.equal g.Format.name fmt.Format.name) acc
  then acc
  else acc @ [ fmt ]

let emit_one b (fmt : Format.t) =
  emit_string b fmt.Format.name;
  emit_u32 b fmt.Format.id;
  emit_u32 b fmt.Format.layout.Layout.size;
  emit_u32 b fmt.Format.layout.Layout.struct_align;
  emit_u32 b (Array.length fmt.Format.fields);
  List.iteri
    (fun i (d : Ftype.field) ->
      let f = fmt.Format.fields.(i) in
      emit_string b f.Format.rf_name;
      emit_elem b d.Ftype.f_elem;
      emit_dim b d.Ftype.f_dim;
      emit_u32 b f.Format.rf_layout.Layout.offset;
      emit_u32 b f.Format.rf_layout.Layout.elem_size)
    fmt.Format.decl.Ftype.fields

(** [encode fmt] serialises [fmt] (and, recursively, the formats it nests)
    into a self-contained descriptor blob. *)
let encode (fmt : Format.t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  emit_string b (Abi.fingerprint fmt.Format.abi);
  let formats = collect_nested [] fmt in
  emit_u32 b (List.length formats);
  List.iter (emit_one b) formats;
  Buffer.contents b

(** [decode blob] reconstructs the sender's format as a *wire-side*
    {!Format.t} (laid out under the sender's ABI, usable as the [wire]
    argument of {!Convert.compile}). The descriptor's recorded offsets are
    cross-checked against a recomputation under the reconstructed ABI —
    a malformed or tampered descriptor is rejected rather than mis-read,
    as is a declaration that does not resolve ([Inconsistent]). *)
let decode (blob : string) : Format.t =
  let c =
    Decode.cursor "descriptor" (Bytes.unsafe_of_string blob) 0 (String.length blob)
  in
  if not (String.equal (Decode.string c 4) magic) then
    Decode.fail "descriptor" 0 Bad_magic;
  let abi =
    let at = Decode.offset c in
    try Abi.of_fingerprint (take_string c)
    with Abi.Bad_fingerprint _ -> Decode.fail "descriptor" at Bad_tag
  in
  let count = Decode.u32 c in
  if count <= 0 || count > 1024 then Decode.fail_at c Too_long;
  let catalog : (string, Format.t) Hashtbl.t = Hashtbl.create 8 in
  let last = ref None in
  for _ = 1 to count do
    let name = take_string c in
    let id = Decode.u32 c in
    let size = Decode.u32 c in
    let align = Decode.u32 c in
    let nfields = Decode.u32 c in
    if nfields <= 0 || nfields > 4096 then Decode.fail_at c Too_long;
    let fields =
      List.init nfields (fun _ ->
          let f_name = take_string c in
          let f_elem = take_elem c in
          let f_dim = take_dim c in
          let offset = Decode.u32 c in
          let elem_size = Decode.u32 c in
          ({ Ftype.f_name; f_elem; f_dim }, offset, elem_size))
    in
    let decl = { Ftype.name; fields = List.map (fun (d, _, _) -> d) fields } in
    let fmt =
      try Format.resolve ~abi ~id (Hashtbl.find_opt catalog) decl
      with Format.Registration_error _ | Layout.Layout_error _ ->
        Decode.fail_at c Inconsistent
    in
    (* Cross-check the transmitted physical layout against our own
       recomputation under the same ABI: they must agree, or our plans
       would read the payload at the wrong offsets. *)
    if fmt.Format.layout.Layout.size <> size
       || fmt.Format.layout.Layout.struct_align <> align
       || not
            (List.for_all2
               (fun (f : Format.rfield) (_, offset, elem_size) ->
                 f.Format.rf_layout.Layout.offset = offset
                 && f.Format.rf_layout.Layout.elem_size = elem_size)
               (Array.to_list fmt.Format.fields) fields)
    then Decode.fail_at c Inconsistent;
    Hashtbl.replace catalog name fmt;
    last := Some fmt
  done;
  (* [count] is at least 1 *)
  Option.get !last
