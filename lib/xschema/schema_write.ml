(** Render a {!Schema.t} back to an XML Schema document — the inverse
    direction ("wire2xml"): a process can publish the formats it already
    holds as open metadata for others to discover. *)

open Omf_xml

let xsd = "xsd"

let name_of_type_ref = function
  | Schema.Builtin b -> xsd ^ ":" ^ Schema.builtin_name b
  | Schema.Defined n -> n

let element_to_xml (e : Schema.element) : Doc.element =
  let attrs =
    [ ("name", e.Schema.el_name); ("type", name_of_type_ref e.Schema.el_type) ]
  in
  let attrs =
    match e.Schema.max_occurs with
    | None -> attrs
    | Some m ->
      let max_str =
        match m with
        | Schema.Bounded n -> string_of_int n
        | Schema.Unbounded -> "*"
        | Schema.Counted_by control -> control
      in
      attrs
      @ [ ("minOccurs", string_of_int e.Schema.min_occurs)
        ; ("maxOccurs", max_str) ]
  in
  Doc.element ~attrs (xsd ^ ":element")

let complex_type_to_xml (ct : Schema.complex_type) : Doc.element =
  let doc_nodes =
    match ct.Schema.ct_documentation with
    | None -> []
    | Some text ->
      [ Doc.Element
          (Doc.element
             ~children:
               [ Doc.Element
                   (Doc.element ~children:[ Doc.Text text ]
                      (xsd ^ ":documentation")) ]
             (xsd ^ ":annotation")) ]
  in
  Doc.element
    ~attrs:[ ("name", ct.Schema.ct_name) ]
    ~children:
      (doc_nodes
      @ List.map (fun e -> Doc.Element (element_to_xml e)) ct.Schema.ct_elements)
    (xsd ^ ":complexType")

let simple_type_to_xml (st : Schema.simple_type) : Doc.element =
  let facets =
    List.map
      (fun v ->
        Doc.Element
          (Doc.element ~attrs:[ ("value", v) ] (xsd ^ ":enumeration")))
      st.Schema.st_enumeration
    @ (match st.Schema.st_min_inclusive with
      | None -> []
      | Some v ->
        [ Doc.Element
            (Doc.element
               ~attrs:[ ("value", Printf.sprintf "%g" v) ]
               (xsd ^ ":minInclusive")) ])
    @
    match st.Schema.st_max_inclusive with
    | None -> []
    | Some v ->
      [ Doc.Element
          (Doc.element
             ~attrs:[ ("value", Printf.sprintf "%g" v) ]
             (xsd ^ ":maxInclusive")) ]
  in
  Doc.element
    ~attrs:[ ("name", st.Schema.st_name) ]
    ~children:
      [ Doc.Element
          (Doc.element
             ~attrs:
               [ ("base", xsd ^ ":" ^ Schema.builtin_name st.Schema.st_base) ]
             ~children:facets
             (xsd ^ ":restriction")) ]
    (xsd ^ ":simpleType")

let to_document (t : Schema.t) : Doc.t =
  let attrs =
    [ ("xmlns:" ^ xsd, List.hd Schema.schema_namespaces) ]
    @
    match t.Schema.target_namespace with
    | None -> []
    | Some ns -> [ ("targetNamespace", ns) ]
  in
  let doc_nodes =
    match t.Schema.documentation with
    | None -> []
    | Some text ->
      [ Doc.Element
          (Doc.element
             ~children:
               [ Doc.Element
                   (Doc.element ~children:[ Doc.Text text ]
                      (xsd ^ ":documentation")) ]
             (xsd ^ ":annotation")) ]
  in
  { Doc.decl = [ ("version", "1.0") ]
  ; root =
      Doc.element ~attrs
        ~children:
          (doc_nodes
          @ List.map
              (fun st -> Doc.Element (simple_type_to_xml st))
              t.Schema.simple_types
          @ List.map (fun ct -> Doc.Element (complex_type_to_xml ct)) t.Schema.types)
        (xsd ^ ":schema") }

let to_string (t : Schema.t) : string =
  Write.document_to_string (to_document t)
