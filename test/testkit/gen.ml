(** QCheck generators for ABIs, format declarations and matching values —
    shared by the property tests of several suites. *)

open Omf_machine
open Omf_pbio
module G = QCheck.Gen

let abi : Abi.t G.t = G.oneofl Abi.all

(* [schema_safe] restricts to C types that survive an XML Schema
   publish/discover round-trip (long long has no distinct xsd rendering). *)
let int_prim_of ~schema_safe : Abi.prim G.t =
  G.oneofl
    ([ Abi.Short; Abi.Ushort; Abi.Int; Abi.Uint; Abi.Long; Abi.Ulong ]
    @ if schema_safe then [] else [ Abi.Longlong; Abi.Ulonglong ])

let int_prim : Abi.prim G.t = int_prim_of ~schema_safe:false

let float_prim : Abi.prim G.t = G.oneofl [ Abi.Float; Abi.Double ]

let field_name i = Printf.sprintf "f%d" i

(** A scalar-ish element (no nesting). *)
let elem_of ~schema_safe : Ftype.elem G.t =
  G.frequency
    [ (4, G.map (fun p -> Ftype.Int_t p) (int_prim_of ~schema_safe))
    ; (2, G.map (fun p -> Ftype.Float_t p) float_prim)
    ; (1, G.return Ftype.Char_t)
    ; (2, G.return Ftype.String_t) ]

let elem : Ftype.elem G.t = elem_of ~schema_safe:false

(** A format declaration with [n] fields. Dynamic arrays get a dedicated
    control field appended; nested formats come from [nested] (must be
    registered before this one). *)
let decl ?(allow_nested = []) ?(schema_safe = false) ~name n : Ftype.t G.t =
  let elem = elem_of ~schema_safe in
  let int_prim = int_prim_of ~schema_safe in
  ignore int_prim;
  let open G in
  let* kinds =
    list_repeat n
      (frequency
         ([ (5, return `Scalar); (2, return `Fixed); (1, return `Var) ]
         @ (if allow_nested = [] then [] else [ (2, return `Nested) ])))
  in
  let* fields_and_controls =
    let rec go i acc = function
      | [] -> return (List.rev acc)
      | kind :: rest -> (
        match kind with
        | `Scalar ->
          let* e = elem in
          go (i + 1) (`F (Ftype.field (field_name i) e) :: acc) rest
        | `Fixed ->
          let* e = elem in
          (* bound 1 renders as maxOccurs="1", which legitimately reads
             back as a scalar — exclude it when schema round-tripping *)
          let* bound = int_range (if schema_safe then 2 else 1) 6 in
          (* dynamic arrays of strings are rejected at registration;
             fixed arrays of strings are fine *)
          go (i + 1)
            (`F (Ftype.field ~dim:(Ftype.Fixed bound) (field_name i) e) :: acc)
            rest
        | `Var ->
          let* e =
            frequency
              [ (4, map (fun p -> Ftype.Int_t p) (int_prim_of ~schema_safe))
              ; (2, map (fun p -> Ftype.Float_t p) float_prim)
              ; (1, return Ftype.Char_t)
              ; (2, return Ftype.String_t) ]
          in
          let control = field_name i ^ "_count" in
          go (i + 1)
            (`F (Ftype.field (control) (Ftype.Int_t Abi.Int))
             :: `F (Ftype.field ~dim:(Ftype.Var control) (field_name i) e)
             :: acc)
            rest
        | `Nested ->
          let* nested_name = oneofl allow_nested in
          go (i + 1)
            (`F (Ftype.field (field_name i) (Ftype.Named_t nested_name)) :: acc)
            rest)
    in
    go 0 [] kinds
  in
  let fields = List.map (function `F f -> f) fields_and_controls in
  return { Ftype.name; fields }

(* ---- values matching a resolved format ---- *)

let int_value_for ~size ~signed : Value.t G.t =
  let open G in
  let bits = 8 * size in
  let+ v = G.int_range (-1_000_000) 1_000_000 in
  let v64 = Int64.of_int v in
  if signed then
    (* clamp into representable range *)
    let max_v = Int64.sub (Int64.shift_left 1L (bits - 1)) 1L in
    let min_v = Int64.neg (Int64.shift_left 1L (bits - 1)) in
    let v64 = if Int64.compare v64 max_v > 0 then max_v else v64 in
    let v64 = if Int64.compare v64 min_v < 0 then min_v else v64 in
    Value.Int v64
  else
    let v64 = Int64.abs v64 in
    let mask =
      if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L
    in
    Value.Uint (Int64.logand v64 mask)

let float_value_for ~size : Value.t G.t =
  let open G in
  let+ f = G.float_bound_inclusive 1e6 in
  (* store a single-precision-representable value when size = 4 so that
     round-trips compare equal bit-for-bit *)
  Value.Float
    (if size = 4 then Int32.float_of_bits (Int32.bits_of_float f) else f)

let char_value : Value.t G.t =
  G.map (fun c -> Value.Char c) G.printable

let string_value : Value.t G.t =
  let open G in
  let+ s = G.string_size ~gen:(G.char_range 'a' 'z') (G.int_range 0 12) in
  Value.String s

let rec value_for_format (fmt : Format.t) : Value.t G.t =
  let open G in
  let scalar (f : Format.rfield) : Value.t G.t =
    let size = f.Format.rf_layout.Omf_machine.Layout.elem_size in
    match f.Format.rf_elem with
    | Format.Rint { signed; _ } -> int_value_for ~size ~signed
    | Format.Rfloat _ -> float_value_for ~size
    | Format.Rchar -> char_value
    | Format.Rstring -> string_value
    | Format.Rnested nested -> value_for_format nested
  in
  let controls =
    List.filter_map
      (fun (f : Format.rfield) ->
        match f.Format.rf_dim with
        | Format.Rvar control -> Some control
        | _ -> None)
      fmt.Format.fields
  in
  (* a float array binds as [Floats] or as boxed [Float]s, half the time
     each: the two representations of one value *)
  let array_of (f : Format.rfield) elements =
    let* l = elements in
    match f.Format.rf_elem with
    | Format.Rfloat _ ->
      let+ unboxed = G.bool in
      if unboxed then
        Value.Floats (Float.Array.of_list (List.map Value.to_float_exn l))
      else Value.Array (Array.of_list l)
    | _ -> return (Value.Array (Array.of_list l))
  in
  let rec fields_gen = function
    | [] -> return []
    | (f : Format.rfield) :: rest ->
      if List.mem f.Format.rf_name controls then
        (* control fields are auto-filled by Native.store *)
        fields_gen rest
      else
        let* v =
          match f.Format.rf_dim with
          | Format.Rscalar -> scalar f
          | Format.Rfixed n -> (
            match f.Format.rf_elem with
            | Format.Rchar ->
              (* char[N] binds from a string of length < N *)
              let+ s =
                G.string_size ~gen:(G.char_range 'a' 'z') (G.int_range 0 (n - 1))
              in
              Value.String s
            | _ -> array_of f (list_repeat n (scalar f)))
          | Format.Rvar _ ->
            let* k = int_range 0 5 in
            array_of f (list_repeat k (scalar f))
        in
        let+ rest = fields_gen rest in
        (f.Format.rf_name, v) :: rest
  in
  let+ fields = fields_gen fmt.Format.fields in
  Value.Record fields

(** Generate (abi, registered format, matching value) triples. *)
let format_and_value ?(max_fields = 8) ?(schema_safe = false) () :
    (Abi.t * Format.t * Value.t) G.t =
  let open G in
  let* a = abi in
  let* n = int_range 1 max_fields in
  let* d = decl ~schema_safe ~name:"gen" n in
  let registry = Format.Registry.create a in
  let fmt = Format.Registry.register registry d in
  let+ v = value_for_format fmt in
  (a, fmt, v)
