(** Tests for the xml2wire core: schema -> PBIO mapping, the Catalog,
    discovery fallback chains, re-discovery, publication and binding. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_xml2wire
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let str = Alcotest.string
let bool = Alcotest.bool

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

(* ------------------------------------------------------------------ *)
(* Mapper: the schema -> IOField translation of section 4.2.2           *)
(* ------------------------------------------------------------------ *)

let type_of_schema text name =
  let s = Omf_xschema.Schema.of_string text in
  Option.get (Omf_xschema.Schema.find_type s name)

let test_mapper_figure_6_matches_figure_5 () =
  (* the schema of Figure 6 must map onto the IOField rows of Figure 5 *)
  let decl = Mapper.decl_of_complex_type (type_of_schema Fx.schema_a "ASDOffEvent") in
  let expected = Fx.decl_a in
  check str "name" expected.Ftype.name decl.Ftype.name;
  List.iter2
    (fun (got : Ftype.field) (want : Ftype.field) ->
      check str ("field " ^ want.Ftype.f_name) want.Ftype.f_name got.Ftype.f_name;
      check str
        ("type of " ^ want.Ftype.f_name)
        (Ftype.to_type_string (want.Ftype.f_elem, want.Ftype.f_dim))
        (Ftype.to_type_string (got.Ftype.f_elem, got.Ftype.f_dim)))
    decl.Ftype.fields expected.Ftype.fields

let test_mapper_synthesises_control_field () =
  (* Figure 9's maxOccurs="*" must synthesise eta_count (Figure 8) *)
  let decl = Mapper.decl_of_complex_type (type_of_schema Fx.schema_b "ASDOffEventB") in
  let eta = List.find (fun f -> f.Ftype.f_name = "eta") decl.Ftype.fields in
  check bool "eta is a dynamic array counted by eta_count" true
    (eta.Ftype.f_dim = Ftype.Var "eta_count");
  let count = List.find (fun f -> f.Ftype.f_name = "eta_count") decl.Ftype.fields in
  check bool "synthesised control is a C int" true
    (count.Ftype.f_elem = Ftype.Int_t Abi.Int && count.Ftype.f_dim = Ftype.Scalar)

let test_mapper_explicit_control_field () =
  let ct =
    type_of_schema
      {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="n" type="xsd:integer"/>
    <xsd:element name="data" type="xsd:double" maxOccurs="n"/>
  </xsd:complexType>
</xsd:schema>|}
      "T"
  in
  let decl = Mapper.decl_of_complex_type ct in
  let data = List.find (fun f -> f.Ftype.f_name = "data") decl.Ftype.fields in
  check bool "explicit control honoured" true (data.Ftype.f_dim = Ftype.Var "n");
  check int "no extra field synthesised" 2 (List.length decl.Ftype.fields)

let test_mapper_rejects_bad_control () =
  let ct =
    type_of_schema
      {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="n" type="xsd:string"/>
    <xsd:element name="data" type="xsd:double" maxOccurs="n"/>
  </xsd:complexType>
</xsd:schema>|}
      "T"
  in
  try
    ignore (Mapper.decl_of_complex_type ct);
    Alcotest.fail "expected Mapping_error"
  with Mapper.Mapping_error _ -> ()

let test_mapper_rejects_self_nesting () =
  let ct =
    type_of_schema
      {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="x" type="T"/>
  </xsd:complexType>
</xsd:schema>|}
      "T"
  in
  try
    ignore (Mapper.decl_of_complex_type ct);
    Alcotest.fail "expected Mapping_error"
  with Mapper.Mapping_error _ -> ()

let test_mapper_maxoccurs_one_is_scalar () =
  let ct =
    type_of_schema
      {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="x" type="xsd:integer" minOccurs="1" maxOccurs="1"/>
  </xsd:complexType>
</xsd:schema>|}
      "T"
  in
  let decl = Mapper.decl_of_complex_type ct in
  check bool "maxOccurs=1 is scalar" true
    ((List.hd decl.Ftype.fields).Ftype.f_dim = Ftype.Scalar)

let test_mapper_simple_types_map_to_base () =
  (* a simpleType restriction is physically its base builtin *)
  let text =
    {|<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:simpleType name="AirportCode">
    <xsd:restriction base="xsd:string"><xsd:enumeration value="KATL"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Count">
    <xsd:restriction base="xsd:integer"><xsd:minInclusive value="0"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Route">
    <xsd:element name="n" type="Count"/>
    <xsd:element name="hops" type="xsd:double" maxOccurs="n"/>
    <xsd:element name="dest" type="AirportCode"/>
  </xsd:complexType>
</xsd:schema>|}
  in
  let catalog = Catalog.create Abi.x86_64 in
  let formats = Xml2wire.register_schema catalog text in
  check int "one format (simple types are not formats)" 1 (List.length formats);
  let fmt = List.hd formats in
  let dest = Option.get (Format.find_field fmt "dest") in
  check bool "AirportCode lays out as char*" true
    (match dest.Format.rf_elem with Format.Rstring -> true | _ -> false);
  (* the simple integer type is accepted as an explicit control field *)
  let hops = Option.get (Format.find_field fmt "hops") in
  check bool "simple int type usable as maxOccurs control" true
    (match hops.Format.rf_dim with
    | Format.Rvar { control = "n"; at } -> fmt.Format.names.(at) = "n"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Registration end-to-end: xml2wire vs compiled-in must agree          *)
(* ------------------------------------------------------------------ *)

let test_schema_registration_equals_compiled () =
  List.iter
    (fun abi ->
      (* compiled-in path (the PBIO column of Table 1) *)
      let compiled = Catalog.create abi in
      ignore (Catalog.register compiled ~source:"compiled" Fx.decl_a);
      ignore (Catalog.register compiled ~source:"compiled" Fx.decl_b);
      ignore (Catalog.register compiled ~source:"compiled" Fx.decl_c);
      ignore (Catalog.register compiled ~source:"compiled" Fx.decl_d);
      (* xml2wire path (the xml2wire column) *)
      let discovered = Catalog.create abi in
      ignore (Xml2wire.register_schema discovered Fx.schema_a);
      ignore (Xml2wire.register_schema discovered Fx.schema_b);
      ignore (Xml2wire.register_schema discovered Fx.schema_cd);
      List.iter
        (fun name ->
          let a = Option.get (Catalog.find_format compiled name) in
          let b = Option.get (Catalog.find_format discovered name) in
          check str
            (Printf.sprintf "%s on %s: identical layout" name abi.Abi.name)
            (Format.layout_signature a) (Format.layout_signature b))
        [ "ASDOffEvent"; "ASDOffEventB"; "ASDOffEventC"; "threeASDOffs" ])
    Abi.all

let test_registered_formats_interoperate () =
  (* sender discovered via XML, receiver compiled-in: values flow *)
  let sender = Catalog.create Abi.x86_64 in
  ignore (Xml2wire.register_schema sender Fx.schema_b);
  let receiver_catalog = Catalog.create Abi.sparc_32 in
  ignore (Catalog.register receiver_catalog ~source:"compiled" Fx.decl_b);
  let binding = Xml2wire.bind sender "ASDOffEventB" in
  let format = Xml2wire.binding_format binding in
  let msg = Omf_pbio.Pbio.message_of_value Abi.x86_64 format Fx.value_b in
  let receiver =
    Receiver.create
      (Catalog.registry receiver_catalog)
      (Omf_machine.Memory.create Abi.sparc_32)
  in
  ignore (Receiver.learn receiver (Omf_pbio.Format_codec.encode format));
  let _, received = Receiver.receive_value receiver msg in
  check value_testable "xml2wire sender -> compiled receiver"
    (Value.field_exn received "cntrID")
    (Value.String "ZTL-ARTCC-0004")

let test_bind_unknown_raises () =
  let catalog = Catalog.create Abi.x86_64 in
  try
    ignore (Xml2wire.bind catalog "NoSuch");
    Alcotest.fail "expected No_such_format"
  with Xml2wire.No_such_format _ -> ()

(* ------------------------------------------------------------------ *)
(* Catalog                                                              *)
(* ------------------------------------------------------------------ *)

let test_catalog_bookkeeping () =
  let c = Catalog.create Abi.x86_64 in
  ignore (Catalog.register c ~source:"s1" Fx.decl_a);
  ignore (Catalog.register c ~source:"s2" Fx.decl_b);
  check int "two entries" 2 (List.length (Catalog.entries c));
  check bool "mem" true (Option.is_some (Catalog.find c "ASDOffEvent"));
  let names = List.map (fun e -> e.Catalog.decl.Ftype.name) (Catalog.entries c) in
  check bool "registration order preserved" true
    (names = [ "ASDOffEvent"; "ASDOffEventB" ]);
  (* upgrade in place *)
  let decl_a2 =
    { Fx.decl_a with
      Ftype.fields =
        Fx.decl_a.Ftype.fields @ [ Ftype.io_field "gate" "string" ] }
  in
  let f2 = Catalog.register c ~source:"s3" decl_a2 in
  check int "still two entries" 2 (List.length (Catalog.entries c));
  check bool "replaced format has the new field" true
    (Option.is_some (Format.find_field f2 "gate"));
  check str "provenance updated" "s3"
    (Option.get (Catalog.find c "ASDOffEvent")).Catalog.source

(* ------------------------------------------------------------------ *)
(* Discovery                                                            *)
(* ------------------------------------------------------------------ *)

let failing_source label =
  Discovery.from_fetcher ~label (fun () -> failwith "network down")

let test_discovery_first_source_wins () =
  let c = Catalog.create Abi.x86_64 in
  let outcome =
    Discovery.discover c
      [ Discovery.from_string ~label:"primary" Fx.schema_a
      ; Discovery.compiled ~label:"fallback" [ Fx.decl_a ] ]
  in
  check str "primary wins" "primary" outcome.Discovery.source;
  check int "formats registered" 1 (List.length outcome.Discovery.formats)

let test_discovery_fallback_chain () =
  (* remote discovery down -> compiled-in fallback keeps working
     (section 3.3's fault-tolerance argument) *)
  let c = Catalog.create Abi.x86_64 in
  let outcome =
    Discovery.discover c
      [ failing_source "http://metaserver/flight.xsd"
      ; failing_source "http://backup/flight.xsd"
      ; Discovery.compiled ~label:"compiled-in" [ Fx.decl_a ] ]
  in
  check str "fallback wins" "compiled-in" outcome.Discovery.source;
  check bool "format usable" true (Option.is_some (Catalog.find c "ASDOffEvent"))

let test_discovery_all_fail () =
  let c = Catalog.create Abi.x86_64 in
  match
    Discovery.discover c [ failing_source "a"; failing_source "b" ]
  with
  | _ -> Alcotest.fail "expected Discovery_failed"
  | exception Discovery.Discovery_failed attempts ->
    check int "both attempts recorded" 2 (List.length attempts)

let test_discovery_bad_document_falls_through () =
  let c = Catalog.create Abi.x86_64 in
  let outcome =
    Discovery.discover c
      [ Discovery.from_string ~label:"corrupt" "<not-a-schema/>"
      ; Discovery.compiled ~label:"compiled-in" [ Fx.decl_a ] ]
  in
  check str "schema errors count as source failure" "compiled-in"
    outcome.Discovery.source

let test_discovery_from_file () =
  let path = Filename.temp_file "omf" ".xsd" in
  let oc = open_out path in
  output_string oc Fx.schema_a;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = Catalog.create Abi.x86_64 in
      let outcome = Discovery.discover c [ Discovery.from_file path ] in
      check bool "registered from file" true (Option.is_some (Catalog.find c "ASDOffEvent"));
      check bool "label carries path" true
        (String.length outcome.Discovery.source > 5))

let test_rediscovery_detects_change () =
  let current = ref Fx.schema_a in
  let source =
    Discovery.from_fetcher ~label:"dynamic" (fun () -> !current)
  in
  let c = Catalog.create Abi.x86_64 in
  let w = Discovery.watch c [ source ] in
  check bool "initially registered" true (Option.is_some (Catalog.find c "ASDOffEvent"));
  check bool "no change -> None" true (Discovery.refresh w = None);
  (* upgrade the metadata document: add a field *)
  current :=
    Omf_testkit.Strings.replace ~sub:{|<xsd:element name="eta" type="xsd:unsigned-long" />|}
      ~by:{|<xsd:element name="eta" type="xsd:unsigned-long" />
            <xsd:element name="gate" type="xsd:string" />|}
      Fx.schema_a;
  (match Discovery.refresh w with
  | Some outcome ->
    check int "re-registered" 1 (List.length outcome.Discovery.formats)
  | None -> Alcotest.fail "change not detected");
  let fmt = Option.get (Catalog.find_format c "ASDOffEvent") in
  check bool "upgraded format has the new field" true
    (Option.is_some (Format.find_field fmt "gate"))

let test_refresh_survives_outage () =
  let up = ref true in
  let source =
    Discovery.from_fetcher ~label:"flaky" (fun () ->
        if !up then Fx.schema_a else failwith "down")
  in
  let c = Catalog.create Abi.x86_64 in
  let w = Discovery.watch c [ source ] in
  up := false;
  (match Discovery.refresh w with
  | _ -> Alcotest.fail "expected Discovery_failed"
  | exception Discovery.Discovery_failed _ -> ());
  check bool "previous registration still in force" true
    (Option.is_some (Catalog.find c "ASDOffEvent"))

(* a refresh walks the chain as a discovery does: the primary's failed
   probe is counted even though the compiled-in fallback answers *)
let test_refresh_counts_failures () =
  let up = ref true in
  let primary =
    Discovery.from_fetcher ~label:"primary" (fun () ->
        if !up then Fx.schema_a else failwith "down")
  in
  let c = Catalog.create Abi.x86_64 in
  let w = Discovery.watch c [ primary; Discovery.compiled [ Fx.decl_a ] ] in
  let failures () =
    Option.value ~default:0
      (List.assoc_opt "source_failures" (Discovery.stats ()))
  in
  let before = failures () in
  up := false;
  (match Discovery.refresh w with
  | Some outcome -> check str "fallback answers" "compiled" outcome.Discovery.origin
  | None -> Alcotest.fail "the fallback's decls replace the document");
  check int "the down primary counts one failure" (before + 1) (failures ())

(* ------------------------------------------------------------------ *)
(* Publication (wire2xml)                                               *)
(* ------------------------------------------------------------------ *)

let test_publish_roundtrip () =
  let c = Catalog.create Abi.sparc_32 in
  ignore (Catalog.register c ~source:"compiled" Fx.decl_b);
  let text = Xml2wire.publish_schema c [ "ASDOffEventB" ] in
  (* a fresh party discovers the published document and derives the same
     physical format *)
  let c2 = Catalog.create Abi.sparc_32 in
  ignore (Xml2wire.register_schema c2 text);
  check str "published schema reproduces the layout"
    (Format.layout_signature (Option.get (Catalog.find_format c "ASDOffEventB")))
    (Format.layout_signature (Option.get (Catalog.find_format c2 "ASDOffEventB")))

let test_publish_unknown_raises () =
  let c = Catalog.create Abi.x86_64 in
  try
    ignore (Xml2wire.publish_schema c [ "Nope" ]);
    Alcotest.fail "expected No_such_format"
  with Xml2wire.No_such_format _ -> ()

(* property: random declarations survive publish -> discover *)
let prop_publish_discover_roundtrip =
  QCheck.Test.make ~name:"publish/discover round-trip (random formats)"
    ~count:100
    (QCheck.make (Omf_testkit.Gen.format_and_value ~max_fields:6 ~schema_safe:true ()))
    (fun (abi, fmt, _) ->
      let c = Catalog.create abi in
      ignore (Catalog.register c ~source:"gen" fmt.Format.decl);
      let text = Xml2wire.publish_schema c [ fmt.Format.name ] in
      let c2 = Catalog.create abi in
      ignore (Xml2wire.register_schema c2 text);
      match Catalog.find_format c2 fmt.Format.name with
      | Some f2 ->
        String.equal (Format.layout_signature fmt) (Format.layout_signature f2)
      | None -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "xml2wire"
    [ ( "mapper",
        [ Alcotest.test_case "Figure 6 maps to Figure 5" `Quick
            test_mapper_figure_6_matches_figure_5
        ; Alcotest.test_case "maxOccurs=* synthesises control" `Quick
            test_mapper_synthesises_control_field
        ; Alcotest.test_case "explicit control fields" `Quick
            test_mapper_explicit_control_field
        ; Alcotest.test_case "bad control rejected" `Quick
            test_mapper_rejects_bad_control
        ; Alcotest.test_case "self-nesting rejected" `Quick
            test_mapper_rejects_self_nesting
        ; Alcotest.test_case "maxOccurs=1 is scalar" `Quick
            test_mapper_maxoccurs_one_is_scalar
        ; Alcotest.test_case "simpleTypes map to their base" `Quick
            test_mapper_simple_types_map_to_base ] )
    ; ( "registration",
        [ Alcotest.test_case "xml2wire = compiled-in layouts (all ABIs)" `Quick
            test_schema_registration_equals_compiled
        ; Alcotest.test_case "discovered and compiled parties interoperate"
            `Quick test_registered_formats_interoperate
        ; Alcotest.test_case "bind unknown raises" `Quick test_bind_unknown_raises ] )
    ; ( "catalog",
        [ Alcotest.test_case "bookkeeping and upgrade" `Quick
            test_catalog_bookkeeping ] )
    ; ( "discovery",
        [ Alcotest.test_case "first source wins" `Quick
            test_discovery_first_source_wins
        ; Alcotest.test_case "fallback chain" `Quick test_discovery_fallback_chain
        ; Alcotest.test_case "all sources fail" `Quick test_discovery_all_fail
        ; Alcotest.test_case "bad documents fall through" `Quick
            test_discovery_bad_document_falls_through
        ; Alcotest.test_case "file source" `Quick test_discovery_from_file
        ; Alcotest.test_case "re-discovery detects changes" `Quick
            test_rediscovery_detects_change
        ; Alcotest.test_case "refresh survives outage" `Quick
            test_refresh_survives_outage
        ; Alcotest.test_case "refresh counts failed probes" `Quick
            test_refresh_counts_failures ] )
    ; ( "publish",
        [ Alcotest.test_case "publish/discover round-trip" `Quick
            test_publish_roundtrip
        ; Alcotest.test_case "publish unknown raises" `Quick
            test_publish_unknown_raises ]
        @ qsuite [ prop_publish_discover_roundtrip ] ) ]
