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

(** A format declaration with [n] fields. A dynamic array's control is
    an [int] field: most often a dedicated one right after the array
    (named [<array>_count], the form an XML Schema [maxOccurs="*"]
    maps to), else a dedicated one before it, or one shared by two
    arrays and declared before, between or after them. Nested formats
    come from [nested] (must be registered before this one). *)
let decl ?(allow_nested = []) ?(schema_safe = false) ~name n : Ftype.t G.t =
  let elem = elem_of ~schema_safe in
  let open G in
  let* kinds =
    list_repeat n
      (frequency
         ([ (5, return `Scalar); (2, return `Fixed); (1, return `Var) ]
         @ (if allow_nested = [] then [] else [ (2, return `Nested) ])))
  in
  let var_elem =
    frequency
      [ (4, map (fun p -> Ftype.Int_t p) (int_prim_of ~schema_safe))
      ; (2, map (fun p -> Ftype.Float_t p) float_prim)
      ; (1, return Ftype.Char_t)
      ; (2, return Ftype.String_t) ]
  in
  let array name control =
    map (fun e -> Ftype.field ~dim:(Ftype.Var control) name e) var_elem
  in
  let control name = Ftype.field name (Ftype.Int_t Abi.Int) in
  (* the fields one kind declares at position [i], in order *)
  let fields i = function
    | `Scalar -> map (fun e -> [ Ftype.field (field_name i) e ]) elem
    | `Fixed ->
      let* e = elem in
      (* bound 1 renders as maxOccurs="1", which legitimately reads
         back as a scalar — exclude it when schema round-tripping *)
      let+ bound = int_range (if schema_safe then 2 else 1) 6 in
      [ Ftype.field ~dim:(Ftype.Fixed bound) (field_name i) e ]
    | `Var -> (
      let a = field_name i and c = Printf.sprintf "n%d" i in
      let* placement =
        frequency [ (2, return `After); (1, return `Before); (1, return `Shared) ]
      in
      match placement with
      | `After ->
        let+ arr = array a (a ^ "_count") in
        [ arr; control (a ^ "_count") ]
      | `Before ->
        let+ arr = array a c in
        [ control c; arr ]
      | `Shared ->
        let* arrays = flatten_l [ array a c; array (a ^ "_b") c ] in
        let+ at = int_range 0 2 in
        List.filteri (fun j _ -> j < at) arrays
        @ (control c :: List.filteri (fun j _ -> j >= at) arrays))
    | `Nested ->
      let+ nested_name = oneofl allow_nested in
      [ Ftype.field (field_name i) (Ftype.Named_t nested_name) ]
  in
  let+ fields = flatten_l (List.mapi fields kinds) in
  { Ftype.name; fields = List.concat fields }

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
  (* one length per control, shared by every array it counts *)
  let* lengths =
    flatten_a
      (Array.map
         (fun (f : Format.rfield) ->
           if f.Format.rf_counts >= 0 then int_range 0 5 else return 0)
         fmt.Format.fields)
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
      if f.Format.rf_counts >= 0 then
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
          | Format.Rvar { at; _ } ->
            array_of f (list_repeat lengths.(at) (scalar f))
        in
        let+ rest = fields_gen rest in
        (f.Format.rf_name, v) :: rest
  in
  let+ fields = fields_gen (Array.to_list fmt.Format.fields) in
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
