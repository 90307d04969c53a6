(** Tests for the XML Schema subset: parsing (draft and final spellings),
    writing, instance validation and classification. *)

open Omf_xschema
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let str = Alcotest.string
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Parsing the paper's documents                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_figure_6 () =
  let s = Schema.of_string Fx.schema_a in
  check (Alcotest.option str) "target namespace"
    (Some "http://www.cc.gatech.edu/pmw/schemas") s.Schema.target_namespace;
  check int "one type" 1 (List.length s.Schema.types);
  let ct = List.hd s.Schema.types in
  check str "name" "ASDOffEvent" ct.Schema.ct_name;
  check int "eight elements" 8 (List.length ct.Schema.ct_elements);
  (* Figure 6 places the annotation at schema level *)
  check (Alcotest.option str) "documentation" (Some "ASDOff")
    s.Schema.documentation;
  let fltnum =
    List.find (fun e -> e.Schema.el_name = "fltNum") ct.Schema.ct_elements
  in
  check bool "fltNum : xsd:integer" true
    (fltnum.Schema.el_type = Schema.Builtin Schema.B_int);
  let eta =
    List.find (fun e -> e.Schema.el_name = "eta") ct.Schema.ct_elements
  in
  check bool "eta : xsd:unsigned-long (draft spelling)" true
    (eta.Schema.el_type = Schema.Builtin Schema.B_unsigned_long)

let test_parse_figure_9_occurs () =
  let s = Schema.of_string Fx.schema_b in
  let ct = List.hd s.Schema.types in
  let off = List.find (fun e -> e.Schema.el_name = "off") ct.Schema.ct_elements in
  check bool "off is a static array of 5" true
    (off.Schema.max_occurs = Some (Schema.Bounded 5));
  let eta = List.find (fun e -> e.Schema.el_name = "eta") ct.Schema.ct_elements in
  check bool "eta is unbounded (maxOccurs=\"*\")" true
    (eta.Schema.max_occurs = Some Schema.Unbounded);
  check int "minOccurs honoured" 0 eta.Schema.min_occurs

let test_parse_figure_12_nesting () =
  let s = Schema.of_string Fx.schema_cd in
  check int "two types" 2 (List.length s.Schema.types);
  let three = Option.get (Schema.find_type s "threeASDOffs") in
  let one = List.find (fun e -> e.Schema.el_name = "one") three.Schema.ct_elements in
  check bool "user-defined type reference" true
    (one.Schema.el_type = Schema.Defined "ASDOffEventC")

let test_modern_spellings () =
  let s =
    Schema.of_string
      {|<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Modern">
    <xs:sequence>
      <xs:element name="id" type="xs:unsignedLong"/>
      <xs:element name="tags" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      <xs:element name="score" type="xs:double"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>|}
  in
  let ct = List.hd s.Schema.types in
  check int "sequence unwrapped" 3 (List.length ct.Schema.ct_elements);
  let id = List.find (fun e -> e.Schema.el_name = "id") ct.Schema.ct_elements in
  check bool "unsignedLong" true
    (id.Schema.el_type = Schema.Builtin Schema.B_unsigned_long);
  let tags = List.find (fun e -> e.Schema.el_name = "tags") ct.Schema.ct_elements in
  check bool "unbounded spelling" true (tags.Schema.max_occurs = Some Schema.Unbounded)

let test_counted_by_maxoccurs () =
  let s =
    Schema.of_string
      {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="n" type="xsd:integer"/>
    <xsd:element name="data" type="xsd:double" maxOccurs="n"/>
  </xsd:complexType>
</xsd:schema>|}
  in
  let ct = List.hd s.Schema.types in
  let data = List.find (fun e -> e.Schema.el_name = "data") ct.Schema.ct_elements in
  check bool "string-valued maxOccurs references the count element" true
    (data.Schema.max_occurs = Some (Schema.Counted_by "n"))

let rejects name text =
  match Schema.of_string text with
  | _ -> Alcotest.failf "%s: expected Schema_error" name
  | exception Schema.Schema_error _ -> ()

let test_rejects () =
  rejects "not a schema" "<root/>";
  rejects "no types"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"/>|};
  rejects "unknown datatype"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
        <xsd:complexType name="T"><xsd:element name="x" type="xsd:complex"/></xsd:complexType>
      </xsd:schema>|};
  rejects "element without type"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
        <xsd:complexType name="T"><xsd:element name="x"/></xsd:complexType>
      </xsd:schema>|};
  rejects "duplicate type names"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
        <xsd:complexType name="T"><xsd:element name="x" type="xsd:integer"/></xsd:complexType>
        <xsd:complexType name="T"><xsd:element name="y" type="xsd:integer"/></xsd:complexType>
      </xsd:schema>|};
  rejects "empty complexType"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
        <xsd:complexType name="T"/>
      </xsd:schema>|};
  rejects "malformed XML" "<xsd:schema"

let test_wrong_namespace_not_schema () =
  rejects "schema element in wrong namespace"
    {|<xsd:schema xmlns:xsd="http://example.org/not-schema">
        <xsd:complexType name="T"><xsd:element name="x" type="xsd:integer"/></xsd:complexType>
      </xsd:schema>|}

(* ------------------------------------------------------------------ *)
(* Writer round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let schema_equal (a : Schema.t) (b : Schema.t) =
  a.Schema.target_namespace = b.Schema.target_namespace
  && List.length a.Schema.types = List.length b.Schema.types
  && List.for_all2
       (fun (x : Schema.complex_type) (y : Schema.complex_type) ->
         x.Schema.ct_name = y.Schema.ct_name
         && x.Schema.ct_elements = y.Schema.ct_elements)
       a.Schema.types b.Schema.types

let test_write_roundtrip () =
  List.iter
    (fun text ->
      let s = Schema.of_string text in
      let s' = Schema.of_string (Schema_write.to_string s) in
      check bool "schema write/parse round-trip" true (schema_equal s s'))
    [ Fx.schema_a; Fx.schema_b; Fx.schema_cd ]

(* ------------------------------------------------------------------ *)
(* Validation and classification                                        *)
(* ------------------------------------------------------------------ *)

(* tiny literal substring replace, to avoid a Str dependency *)
let replace ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.equal (String.sub s i n) sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let instance_a =
  {|<ASDOffEvent>
      <cntrID>ZTL</cntrID><arln>DAL</arln><fltNum>1771</fltNum>
      <equip>B757</equip><org>KATL</org><dest>KMCO</dest>
      <off>100</off><eta>200</eta>
    </ASDOffEvent>|}

let test_validate_good_instance () =
  let s = Schema.of_string Fx.schema_a in
  let el = Omf_xml.Parse.element instance_a in
  check bool "valid instance accepted" true
    (Validate.is_valid s ~type_name:"ASDOffEvent" el)

let test_validate_catches_problems () =
  let s = Schema.of_string Fx.schema_a in
  let missing =
    Omf_xml.Parse.element "<ASDOffEvent><cntrID>x</cntrID></ASDOffEvent>"
  in
  check bool "missing elements detected" true
    (List.length (Validate.validate s ~type_name:"ASDOffEvent" missing) > 0);
  let bad_type =
    Omf_xml.Parse.element
      (replace ~sub:"<fltNum>1771</fltNum>" ~by:"<fltNum>not-a-number</fltNum>"
         instance_a)
  in
  check bool "non-integer content detected" true
    (List.exists
       (fun p -> String.length p.Validate.reason > 0)
       (Validate.validate s ~type_name:"ASDOffEvent" bad_type));
  let extra =
    Omf_xml.Parse.element
      (replace ~sub:"</ASDOffEvent>" ~by:"<bogus>1</bogus></ASDOffEvent>"
         instance_a)
  in
  check bool "unexpected element detected" true
    (List.length (Validate.validate s ~type_name:"ASDOffEvent" extra) > 0)

let test_validate_occurs () =
  let s = Schema.of_string Fx.schema_b in
  (* off must occur exactly 5 times *)
  let make n =
    let offs = String.concat "" (List.init n (fun i -> Printf.sprintf "<off>%d</off>" i)) in
    Omf_xml.Parse.element
      (Printf.sprintf
         {|<ASDOffEventB><cntrID>x</cntrID><arln>y</arln><fltNum>1</fltNum>
           <equip>e</equip><org>o</org><dest>d</dest>%s</ASDOffEventB>|}
         offs)
  in
  check bool "five offs valid (eta may be absent: minOccurs=0)" true
    (Validate.is_valid s ~type_name:"ASDOffEventB" (make 5));
  check bool "three offs invalid" false
    (Validate.is_valid s ~type_name:"ASDOffEventB" (make 3));
  check bool "seven offs invalid" false
    (Validate.is_valid s ~type_name:"ASDOffEventB" (make 7))

let test_classify () =
  (* the paper: determine which definition a live message most closely
     fits *)
  let s = Schema.of_string Fx.schema_cd in
  let b_instance =
    Omf_xml.Parse.element
      {|<x><cntrID>x</cntrID><arln>y</arln><fltNum>1</fltNum>
         <equip>e</equip><org>o</org><dest>d</dest>
         <off>1</off><off>2</off><off>3</off><off>4</off><off>5</off>
         <eta>9</eta></x>|}
  in
  (match Validate.best_match s b_instance with
  | Some "ASDOffEventC" -> ()
  | other ->
    Alcotest.failf "expected ASDOffEventC, got %s"
      (Option.value ~default:"none" other));
  let ranking = Validate.classify s b_instance in
  check int "both types scored" 2 (List.length ranking)

let test_validate_unknown_type () =
  let s = Schema.of_string Fx.schema_a in
  let el = Omf_xml.Parse.element "<x/>" in
  check bool "unknown type reported" true
    (List.length (Validate.validate s ~type_name:"NoSuch" el) = 1)

(* ------------------------------------------------------------------ *)
(* simpleType restrictions (paper footnote 1)                           *)
(* ------------------------------------------------------------------ *)

let simple_schema =
  {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:simpleType name="AirportCode">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="KATL"/>
      <xsd:enumeration value="KMCO"/>
      <xsd:enumeration value="KJFK"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Altitude">
    <xsd:restriction base="xsd:integer">
      <xsd:minInclusive value="0"/>
      <xsd:maxInclusive value="60000"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Leg">
    <xsd:element name="from" type="AirportCode"/>
    <xsd:element name="to" type="AirportCode"/>
    <xsd:element name="cruise" type="Altitude"/>
  </xsd:complexType>
</xsd:schema>|}

let test_simple_type_parsing () =
  let s = Schema.of_string simple_schema in
  check int "two simple types" 2 (List.length s.Schema.simple_types);
  let code = Option.get (Schema.find_simple_type s "AirportCode") in
  check bool "string base" true (code.Schema.st_base = Schema.B_string);
  check int "three enum values" 3 (List.length code.Schema.st_enumeration);
  let alt = Option.get (Schema.find_simple_type s "Altitude") in
  check bool "integer base with bounds" true
    (alt.Schema.st_base = Schema.B_int
    && alt.Schema.st_min_inclusive = Some 0.0
    && alt.Schema.st_max_inclusive = Some 60000.0)

let test_simple_type_validation () =
  let s = Schema.of_string simple_schema in
  let good =
    Omf_xml.Parse.element
      "<Leg><from>KATL</from><to>KMCO</to><cruise>31000</cruise></Leg>"
  in
  check bool "valid instance" true (Validate.is_valid s ~type_name:"Leg" good);
  let bad_enum =
    Omf_xml.Parse.element
      "<Leg><from>XXXX</from><to>KMCO</to><cruise>31000</cruise></Leg>"
  in
  check bool "enumeration violation caught" false
    (Validate.is_valid s ~type_name:"Leg" bad_enum);
  let bad_range =
    Omf_xml.Parse.element
      "<Leg><from>KATL</from><to>KMCO</to><cruise>99000</cruise></Leg>"
  in
  check bool "range violation caught" false
    (Validate.is_valid s ~type_name:"Leg" bad_range);
  let bad_lexical =
    Omf_xml.Parse.element
      "<Leg><from>KATL</from><to>KMCO</to><cruise>high</cruise></Leg>"
  in
  check bool "base lexical violation caught" false
    (Validate.is_valid s ~type_name:"Leg" bad_lexical)

let test_simple_type_ok_direct () =
  let s = Schema.of_string simple_schema in
  let alt = Option.get (Schema.find_simple_type s "Altitude") in
  check bool "in range" true (Validate.simple_type_ok alt "100" = Ok ());
  check bool "below min" true (Result.is_error (Validate.simple_type_ok alt "-5"));
  check bool "above max" true
    (Result.is_error (Validate.simple_type_ok alt "70000"))

let test_simple_type_write_roundtrip () =
  let s = Schema.of_string simple_schema in
  let s2 = Schema.of_string (Schema_write.to_string s) in
  check int "simple types survive" 2 (List.length s2.Schema.simple_types);
  let code = Option.get (Schema.find_simple_type s2 "AirportCode") in
  check bool "enum survives" true
    (code.Schema.st_enumeration = [ "KATL"; "KMCO"; "KJFK" ])

let test_simple_type_rejects () =
  rejects "simpleType without restriction"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
        <xsd:simpleType name="T"/>
        <xsd:complexType name="C"><xsd:element name="x" type="xsd:integer"/></xsd:complexType>
      </xsd:schema>|};
  rejects "simpleType with non-builtin base"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
        <xsd:simpleType name="T"><xsd:restriction base="Nope"/></xsd:simpleType>
        <xsd:complexType name="C"><xsd:element name="x" type="xsd:integer"/></xsd:complexType>
      </xsd:schema>|};
  rejects "duplicate name across kinds"
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
        <xsd:simpleType name="T"><xsd:restriction base="xsd:string"/></xsd:simpleType>
        <xsd:complexType name="T"><xsd:element name="x" type="xsd:integer"/></xsd:complexType>
      </xsd:schema>|}

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "xschema"
    [ ( "parse",
        [ Alcotest.test_case "Figure 6 (structure A)" `Quick test_parse_figure_6
        ; Alcotest.test_case "Figure 9 occurs handling" `Quick
            test_parse_figure_9_occurs
        ; Alcotest.test_case "Figure 12 nesting" `Quick test_parse_figure_12_nesting
        ; Alcotest.test_case "2001 recommendation spellings" `Quick
            test_modern_spellings
        ; Alcotest.test_case "string-valued maxOccurs" `Quick
            test_counted_by_maxoccurs
        ; Alcotest.test_case "malformed schemas rejected" `Quick test_rejects
        ; Alcotest.test_case "namespace checked" `Quick
            test_wrong_namespace_not_schema ] )
    ; ( "write",
        [ Alcotest.test_case "round-trip" `Quick test_write_roundtrip ] )
    ; ( "simple-types",
        [ Alcotest.test_case "parsing" `Quick test_simple_type_parsing
        ; Alcotest.test_case "validation with facets" `Quick
            test_simple_type_validation
        ; Alcotest.test_case "simple_type_ok" `Quick test_simple_type_ok_direct
        ; Alcotest.test_case "write round-trip" `Quick
            test_simple_type_write_roundtrip
        ; Alcotest.test_case "malformed rejected" `Quick test_simple_type_rejects ] )
    ; ( "validate",
        [ Alcotest.test_case "good instance" `Quick test_validate_good_instance
        ; Alcotest.test_case "problems detected" `Quick test_validate_catches_problems
        ; Alcotest.test_case "occurrence bounds" `Quick test_validate_occurs
        ; Alcotest.test_case "classification" `Quick test_classify
        ; Alcotest.test_case "unknown type" `Quick test_validate_unknown_type ] ) ]
