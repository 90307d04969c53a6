(** Tests for code generation (the paper's "generation of language-level
    message object representations"): C structs + IOField rows, and OCaml
    constructors/accessors — the latter validated by actually *using* the
    module generated at build time (lib/generated). *)

open Omf_machine
open Omf_pbio.Pbio
module C = Omf_codegen.Codegen_c
module O = Omf_codegen.Codegen_ocaml
module Gen = Omf_generated.Generated_asd
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let bool = Alcotest.bool
let str = Alcotest.string

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* C generation                                                         *)
(* ------------------------------------------------------------------ *)

let test_c_struct_matches_figure_4 () =
  let text = C.header [ Fx.decl_a ] in
  List.iter
    (fun line -> check bool ("contains: " ^ line) true (contains text line))
    [ "typedef struct ASDOffEvent_s"
    ; "char* cntrID;"
    ; "int fltNum;"
    ; "unsigned long off;"
    ; "} ASDOffEvent;" ]

let test_c_struct_arrays_match_figure_7 () =
  let text = C.header [ Fx.decl_b ] in
  List.iter
    (fun line -> check bool ("contains: " ^ line) true (contains text line))
    [ "unsigned long off[5];"
    ; "unsigned long* eta;"
    ; "int eta_count;" ]

let test_c_iofields_match_figure_5 () =
  let text = C.header [ Fx.decl_b ] in
  List.iter
    (fun line -> check bool ("contains: " ^ line) true (contains text line))
    [ {|{ "cntrID", "string", sizeof (char*), IOOffset (ASDOffEventBPtr, cntrID) },|}
    ; {|{ "off", "unsigned long[5]", sizeof (unsigned long), IOOffset (ASDOffEventBPtr, off) },|}
    ; {|{ "eta", "unsigned long[eta_count]", sizeof (unsigned long), IOOffset (ASDOffEventBPtr, eta) },|}
    ; "{ NULL, NULL, 0, 0 }" ]

let test_c_nested_structs () =
  let text = C.header [ Fx.decl_c; Fx.decl_d ] in
  List.iter
    (fun line -> check bool ("contains: " ^ line) true (contains text line))
    [ "ASDOffEventC one;"
    ; "double bart;"
    ; {|{ "one", "ASDOffEventC", sizeof (ASDOffEventC), IOOffset (threeASDOffsPtr, one) },|}
    ; "#ifndef OMF_GENERATED_H" ]

let test_c_type_strings_parse_back () =
  (* every generated IOField type string must parse back to the same
     declaration: the generated compiled-in metadata is faithful *)
  List.iter
    (fun (decl : Ftype.t) ->
      List.iter
        (fun (f : Ftype.field) ->
          let ts = Ftype.to_type_string (f.Ftype.f_elem, f.Ftype.f_dim) in
          let elem, dim = Ftype.of_type_string ts in
          check bool
            (Printf.sprintf "%s.%s round-trips" decl.Ftype.name f.Ftype.f_name)
            true
            (elem = f.Ftype.f_elem && dim = f.Ftype.f_dim))
        decl.Ftype.fields)
    [ Fx.decl_a; Fx.decl_b; Fx.decl_d ]

(* ------------------------------------------------------------------ *)
(* OCaml generation: use the module generated at build time             *)
(* ------------------------------------------------------------------ *)

let test_generated_decls_equal_fixtures () =
  check str "decl name" Fx.decl_a.Ftype.name Gen.asdoffevent_decl.Ftype.name;
  check bool "decl A identical" true (Gen.asdoffevent_decl = Fx.decl_a);
  check bool "decl B identical" true (Gen.asdoffeventb_decl = Fx.decl_b);
  check bool "decl D identical" true (Gen.threeasdoffs_decl = Fx.decl_d)

let test_generated_constructor_binds () =
  let v =
    Gen.make_asdoffevent ~cntrid:"ZTL-ARTCC-0004" ~arln:"DELTA" ~fltnum:1771L
      ~equip:"B757-232" ~org:"KATL" ~dest:"KMCO" ~off:1579871234L
      ~eta:1579874834L ()
  in
  check value_testable "constructor reproduces the fixture" Fx.value_a v;
  (* and it binds + round-trips through the marshaling stack *)
  let reg = Registry.create Abi.sparc_32 in
  let fmt = Registry.register reg Gen.asdoffevent_decl in
  let mem = Memory.create Abi.sparc_32 in
  let loaded = Native.load mem fmt (Native.store mem fmt v) in
  check str "accessor reads the loaded record" "KMCO"
    (Gen.asdoffevent_dest loaded)

let test_generated_arrays () =
  let v =
    Gen.make_asdoffeventb ~cntrid:"Z" ~arln:"D" ~fltnum:1L ~equip:"e" ~org:"o"
      ~dest:"d"
      ~off:[| 1L; 2L; 3L; 4L; 5L |]
      ~eta:[| 7L; 8L |]
      ()
  in
  (* control field is absent from the constructor; binding fills it *)
  check bool "no eta_count in constructed record" true
    (Value.field v "eta_count" = None);
  let reg = Registry.create Abi.x86_64 in
  let fmt = Registry.register reg Gen.asdoffeventb_decl in
  let mem = Memory.create Abi.x86_64 in
  let loaded = Native.load mem fmt (Native.store mem fmt v) in
  check bool "eta accessor" true (Gen.asdoffeventb_eta loaded = [| 7L; 8L |]);
  check bool "off accessor" true
    (Gen.asdoffeventb_off loaded = [| 1L; 2L; 3L; 4L; 5L |])

let test_generated_nested () =
  let inner =
    Gen.make_asdoffeventc ~cntrid:"Z" ~arln:"D" ~fltnum:9L ~equip:"e" ~org:"o"
      ~dest:"d"
      ~off:[| 1L; 2L; 3L; 4L; 5L |]
      ~eta:[||]
      ()
  in
  let v =
    Gen.make_threeasdoffs ~one:inner ~bart:1.5 ~two:inner ~lisa:2.5
      ~three:inner ()
  in
  let reg = Registry.create Abi.sparc_32 in
  ignore (Registry.register reg Gen.asdoffeventc_decl);
  let fmt = Registry.register reg Gen.threeasdoffs_decl in
  let mem = Memory.create Abi.sparc_32 in
  let loaded = Native.load mem fmt (Native.store mem fmt v) in
  check (Alcotest.float 0.0) "bart" 1.5 (Gen.threeasdoffs_bart loaded);
  check bool "nested accessor composes" true
    (Gen.asdoffeventc_fltnum (Gen.threeasdoffs_two loaded) = 9L)

(* ------------------------------------------------------------------ *)
(* identifier hygiene                                                   *)
(* ------------------------------------------------------------------ *)

let test_ocaml_identifier_hygiene () =
  check str "keyword suffixed" "type_" (O.ident "type");
  check str "capitals lowered" "asdoffevent" (O.ident "ASDOffEvent");
  check str "punctuation cleaned" "a_b" (O.ident "a-b");
  check bool "never starts with digit or underscore" true
    (String.length (O.ident "_x") > 0 && (O.ident "9lives").[0] = 'f')

let test_interface_text_signatures () =
  let text = O.interface_text [ Fx.decl_b ] in
  List.iter
    (fun needle -> check bool ("mli emits " ^ needle) true (contains text needle))
    [ "val asdoffeventb_decl : Ftype.t"
    ; "val make_asdoffeventb :"
    ; "off:int64 array ->"
    ; "val asdoffeventb_eta : Value.t -> int64 array"
    ; "val asdoffeventb_cntrid : Value.t -> string" ];
  (* control fields appear as accessors but not constructor params *)
  check bool "no eta_count constructor label" false
    (contains text "eta_count:");
  check bool "eta_count accessor exists" true
    (contains text "val asdoffeventb_eta_count : Value.t -> int64")

let test_ocaml_generation_compiles_for_random_formats () =
  (* structural smoke test: generation never raises and always produces
     the three artefacts per format *)
  let text = O.module_text [ Fx.decl_a; Fx.decl_b; Fx.decl_c; Fx.decl_d ] in
  List.iter
    (fun needle -> check bool ("emits " ^ needle) true (contains text needle))
    [ "let asdoffevent_decl"; "let make_asdoffevent"; "let asdoffevent_eta"
    ; "let make_threeasdoffs"; "let threeasdoffs_lisa" ]

let () =
  Alcotest.run "codegen"
    [ ( "c",
        [ Alcotest.test_case "struct matches Figure 4" `Quick
            test_c_struct_matches_figure_4
        ; Alcotest.test_case "arrays match Figure 7" `Quick
            test_c_struct_arrays_match_figure_7
        ; Alcotest.test_case "IOFields match Figure 5/8" `Quick
            test_c_iofields_match_figure_5
        ; Alcotest.test_case "nested structs" `Quick test_c_nested_structs
        ; Alcotest.test_case "type strings parse back" `Quick
            test_c_type_strings_parse_back ] )
    ; ( "ocaml",
        [ Alcotest.test_case "generated decls = fixtures" `Quick
            test_generated_decls_equal_fixtures
        ; Alcotest.test_case "constructor binds and round-trips" `Quick
            test_generated_constructor_binds
        ; Alcotest.test_case "array fields" `Quick test_generated_arrays
        ; Alcotest.test_case "nested formats" `Quick test_generated_nested
        ; Alcotest.test_case "identifier hygiene" `Quick
            test_ocaml_identifier_hygiene
        ; Alcotest.test_case "interface signatures" `Quick
            test_interface_text_signatures
        ; Alcotest.test_case "emits all artefacts" `Quick
            test_ocaml_generation_compiles_for_random_formats ] ) ]
