(** Mapping XML Schema complexTypes onto PBIO declarations — the heart of
    xml2wire (section 4.2.2).

    The field type comes from a straightforward table from XML Schema
    datatypes to PBIO/C types; the field *size* is deliberately absent
    from the XML ("this provides a measure of architecture independence")
    and is derived later, at registration, from the catalog's ABI.

    Array handling follows the paper exactly:
    - numeric [maxOccurs] is a static bound ([integer[5]]);
    - [maxOccurs="*"]: the array is dynamically allocated, and a C control
      field [<name>_count] is synthesised right after it (compare Figure 8,
      where [eta_count] exists in the struct but not in the schema);
    - a string-valued [maxOccurs] names an explicit integer element of the
      same type definition that holds the run-time count. *)

open Omf_machine
open Omf_pbio
open Omf_xschema

exception Mapping_error of string

let mapping_error fmt = Printf.ksprintf (fun s -> raise (Mapping_error s)) fmt

(** The XML Schema datatype -> C type table. *)
let elem_of_builtin : Schema.builtin -> Ftype.elem = function
  | Schema.B_string -> Ftype.String_t
  | Schema.B_boolean -> Ftype.Char_t
  | Schema.B_byte | Schema.B_unsigned_byte -> Ftype.Char_t
  | Schema.B_short -> Ftype.Int_t Abi.Short
  | Schema.B_unsigned_short -> Ftype.Int_t Abi.Ushort
  | Schema.B_int -> Ftype.Int_t Abi.Int
  | Schema.B_unsigned_int -> Ftype.Int_t Abi.Uint
  | Schema.B_long -> Ftype.Int_t Abi.Long
  | Schema.B_unsigned_long -> Ftype.Int_t Abi.Ulong
  | Schema.B_float -> Ftype.Float_t Abi.Float
  | Schema.B_double -> Ftype.Float_t Abi.Double

(** Synthesised control-field name for [maxOccurs="*"] arrays. *)
let synthesised_control name = name ^ "_count"

let elem_of_type_ref ~simple (ct : Schema.complex_type) (e : Schema.element) :
    Ftype.elem =
  match e.Schema.el_type with
  | Schema.Builtin b -> elem_of_builtin b
  | Schema.Defined name -> (
    if String.equal name ct.Schema.ct_name then
      mapping_error "type %S: element %S nests its own type" ct.Schema.ct_name
        e.Schema.el_name;
    (* a simpleType restriction is physically its base builtin; the
       facets are a validation concern, not a layout one *)
    match simple name with
    | Some (st : Schema.simple_type) -> elem_of_builtin st.Schema.st_base
    | None -> Ftype.Named_t name)

let is_integer_builtin = function
  | Schema.B_byte | Schema.B_unsigned_byte | Schema.B_short
  | Schema.B_unsigned_short | Schema.B_int | Schema.B_unsigned_int
  | Schema.B_long | Schema.B_unsigned_long ->
    true
  | Schema.B_string | Schema.B_boolean | Schema.B_float | Schema.B_double ->
    false

let is_integer_element ~simple (ct : Schema.complex_type) name =
  List.exists
    (fun (e : Schema.element) ->
      String.equal e.Schema.el_name name
      && e.Schema.max_occurs = None
      &&
      match e.Schema.el_type with
      | Schema.Builtin b -> is_integer_builtin b
      | Schema.Defined n -> (
        match simple n with
        | Some (st : Schema.simple_type) -> is_integer_builtin st.Schema.st_base
        | None -> false))
    ct.Schema.ct_elements

(** [decl_of_complex_type ?simple ct] translates one complexType into a
    PBIO declaration; [simple] resolves simpleType names (usually
    [Schema.find_simple_type schema]). Raises {!Mapping_error} on
    constructs that cannot be realised as C structures. *)
let decl_of_complex_type ?(simple = fun _ -> None)
    (ct : Schema.complex_type) : Ftype.t =
  let fields =
    List.concat_map
      (fun (e : Schema.element) ->
        let elem = elem_of_type_ref ~simple ct e in
        let base name dim = { Ftype.f_name = name; f_elem = elem; f_dim = dim } in
        match e.Schema.max_occurs with
        | None -> [ base e.Schema.el_name Ftype.Scalar ]
        | Some (Schema.Bounded 1) -> [ base e.Schema.el_name Ftype.Scalar ]
        | Some (Schema.Bounded n) -> [ base e.Schema.el_name (Ftype.Fixed n) ]
        | Some Schema.Unbounded ->
          (* dynamically-allocated array + synthesised count field *)
          let control = synthesised_control e.Schema.el_name in
          if
            List.exists
              (fun (o : Schema.element) -> String.equal o.Schema.el_name control)
              ct.Schema.ct_elements
          then
            mapping_error
              "type %S: synthesised control %S collides with a declared element"
              ct.Schema.ct_name control;
          [ base e.Schema.el_name (Ftype.Var control)
          ; { Ftype.f_name = control; f_elem = Ftype.Int_t Abi.Int
            ; f_dim = Ftype.Scalar } ]
        | Some (Schema.Counted_by control) ->
          if not (is_integer_element ~simple ct control) then
            mapping_error
              "type %S: element %S uses maxOccurs=%S but no integer element %S exists"
              ct.Schema.ct_name e.Schema.el_name control control;
          [ base e.Schema.el_name (Ftype.Var control) ])
      ct.Schema.ct_elements
  in
  { Ftype.name = ct.Schema.ct_name; fields }

(* ------------------------------------------------------------------ *)
(* Inverse mapping: declarations back to schema types ("wire2xml").     *)
(* ------------------------------------------------------------------ *)

let builtin_of_elem : Ftype.elem -> Schema.builtin option = function
  | Ftype.String_t -> Some Schema.B_string
  | Ftype.Char_t -> Some Schema.B_byte
  | Ftype.Int_t Abi.Short -> Some Schema.B_short
  | Ftype.Int_t Abi.Ushort -> Some Schema.B_unsigned_short
  | Ftype.Int_t (Abi.Int | Abi.Char) -> Some Schema.B_int
  | Ftype.Int_t (Abi.Uint | Abi.Uchar) -> Some Schema.B_unsigned_int
  | Ftype.Int_t (Abi.Long | Abi.Longlong) -> Some Schema.B_long
  | Ftype.Int_t (Abi.Ulong | Abi.Ulonglong | Abi.Pointer) ->
    Some Schema.B_unsigned_long
  | Ftype.Int_t (Abi.Float | Abi.Double) -> None
  | Ftype.Float_t Abi.Float -> Some Schema.B_float
  | Ftype.Float_t _ -> Some Schema.B_double
  | Ftype.Named_t _ -> None

(** [complex_type_of_decl decl] renders a declaration as a schema type.
    Synthesised [*_count] control fields are folded back into
    [maxOccurs="*"], mirroring Figure 9; explicit control fields become
    string-valued [maxOccurs]. *)
let complex_type_of_decl (decl : Ftype.t) : Schema.complex_type =
  let synthesised =
    List.filter_map
      (fun (f : Ftype.field) ->
        match f.Ftype.f_dim with
        | Ftype.Var control
          when String.equal control (synthesised_control f.Ftype.f_name) ->
          Some control
        | _ -> None)
      decl.Ftype.fields
  in
  let elements =
    List.filter_map
      (fun (f : Ftype.field) ->
        if List.mem f.Ftype.f_name synthesised then None
        else
          let el_type =
            match f.Ftype.f_elem with
            | Ftype.Named_t n -> Schema.Defined n
            | other -> (
              match builtin_of_elem other with
              | Some b -> Schema.Builtin b
              | None ->
                mapping_error "field %S has no schema rendering" f.Ftype.f_name)
          in
          let min_occurs, max_occurs =
            match f.Ftype.f_dim with
            | Ftype.Scalar -> (1, None)
            | Ftype.Fixed n -> (n, Some (Schema.Bounded n))
            | Ftype.Var control ->
              if String.equal control (synthesised_control f.Ftype.f_name) then
                (0, Some Schema.Unbounded)
              else (0, Some (Schema.Counted_by control))
          in
          Some
            { Schema.el_name = f.Ftype.f_name; el_type; min_occurs; max_occurs })
      decl.Ftype.fields
  in
  { Schema.ct_name = decl.Ftype.name; ct_elements = elements
  ; ct_documentation = None }

(** Publish a set of declarations as a full schema document. *)
let schema_of_decls (decls : Ftype.t list) : Schema.t =
  { Schema.target_namespace = Some "http://omf.example.org/schemas"
  ; documentation = None
  ; types = List.map complex_type_of_decl decls
  ; simple_types = [] }
