(** Unit tests for the Value and Ftype helper surfaces (the pieces not
    already exercised by round-trip properties): pretty-printing,
    record edits, coercion errors, declaration printing. *)

open Omf_machine
open Omf_pbio.Pbio

let check = Alcotest.check
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Value                                                                *)
(* ------------------------------------------------------------------ *)

let test_pp_forms () =
  let v =
    Value.Record
      [ ("i", Value.Int (-3L)); ("u", Value.Uint 7L); ("c", Value.Char 'x')
      ; ("s", Value.String "hi"); ("a", Value.Array [| Value.Int 1L |]) ]
  in
  let text = Value.to_string v in
  List.iter
    (fun needle ->
      check bool ("prints " ^ needle) true
        (Omf_testkit.Strings.replace ~sub:needle ~by:"" text <> text))
    [ "i = -3"; "u = 7"; "'x'"; {|"hi"|}; "[|1|]" ]

let test_equal_corner_cases () =
  check bool "nan equals itself (bit equality)" true
    (Value.equal (Value.Float Float.nan) (Value.Float Float.nan));
  check bool "+0 and -0 differ bitwise" false
    (Value.equal (Value.Float 0.0) (Value.Float (-0.0)));
  check bool "int vs uint constructors differ" false
    (Value.equal (Value.Int 3L) (Value.Uint 3L));
  check bool "record order matters" false
    (Value.equal
       (Value.Record [ ("a", Value.Int 1L); ("b", Value.Int 2L) ])
       (Value.Record [ ("b", Value.Int 2L); ("a", Value.Int 1L) ]));
  check bool "array length mismatch" false
    (Value.equal (Value.Array [| Value.Int 1L |]) (Value.Array [||]))

(* [Floats] is another representation of an [Array] of [Float]s, not
   another value: equality and printing cannot tell the two apart *)
let floats l = Value.Floats (Float.Array.of_list l)
let boxed l = Value.Array (Array.of_list (List.map (fun f -> Value.Float f) l))

let test_floats_equal_boxed () =
  let nan_payload = Int64.float_of_bits 0x7FF0_0000_0000_0BADL in
  let cases =
    [ ("empty", []); ("one", [ 1.5 ]); ("nan", [ Float.nan; 2.0 ])
    ; ("nan payload", [ nan_payload ]); ("signed zeros", [ -0.0; 0.0 ])
    ; ("extremes", [ Float.max_float; Float.min_float; Float.infinity ]) ]
  in
  List.iter
    (fun (name, l) ->
      check bool (name ^ ": floats = floats") true (Value.equal (floats l) (floats l));
      check bool (name ^ ": floats = boxed") true (Value.equal (floats l) (boxed l));
      check bool (name ^ ": boxed = floats") true (Value.equal (boxed l) (floats l)))
    cases;
  check bool "-0.0 vs 0.0 differ" false (Value.equal (floats [ -0.0 ]) (boxed [ 0.0 ]));
  check bool "floats: -0.0 vs 0.0 differ" false
    (Value.equal (floats [ -0.0 ]) (floats [ 0.0 ]));
  check bool "different NaN payloads differ" false
    (Value.equal (floats [ nan_payload ]) (boxed [ Float.nan ]));
  check bool "length mismatch" false (Value.equal (floats [ 1.0 ]) (boxed [ 1.0; 1.0 ]));
  check bool "floats length mismatch" false
    (Value.equal (floats [ 1.0 ]) (floats [ 1.0; 1.0 ]));
  check bool "one element differs" false
    (Value.equal (floats [ 1.0; 2.0 ]) (boxed [ 1.0; 3.0 ]));
  check bool "nested in records" true
    (Value.equal
       (Value.Record [ ("d", floats [ 0.25; 1e300 ]) ])
       (Value.Record [ ("d", boxed [ 0.25; 1e300 ]) ]));
  let a = floats (List.init 2048 float_of_int)
  and b = floats (List.init 2048 float_of_int) in
  let per_call =
    Omf_testkit.Alloc.bytes_per_call ~iters:100 (fun () -> Value.equal a b)
  in
  if per_call >= 1.0 then
    Alcotest.failf "comparing two Floats allocates %.1f B per call" per_call

let test_floats_unequal_ints () =
  let ints c = Value.Array [| c 1L; c 2L |] in
  check bool "Int array" false
    (Value.equal (floats [ 1.0; 2.0 ]) (ints (fun i -> Value.Int i)));
  check bool "Uint array" false
    (Value.equal (ints (fun i -> Value.Uint i)) (floats [ 1.0; 2.0 ]));
  check bool "not a scalar" false (Value.equal (floats [ 1.0 ]) (Value.Float 1.0))

let test_floats_pp () =
  List.iter
    (fun l ->
      check Alcotest.string "same text" (Value.to_string (boxed l))
        (Value.to_string (floats l)))
    [ []; [ 1.0 ]; [ 1.5; -0.0; Float.nan; Float.infinity; 1e-310 ] ];
  check Alcotest.string "hex floats" "[|0x1p+0; -0x1.8p+1|]"
    (Value.to_string (floats [ 1.0; -3.0 ]))

let test_floats_to_array () =
  let l = [ 1.5; Float.nan; -0.0 ] in
  let a = Value.to_array_exn (floats l) in
  check bool "boxed elements with the same bits" true
    (Value.equal (Value.Array a) (boxed l));
  check bool "every element a Float" true
    (Array.for_all (function Value.Float _ -> true | _ -> false) a);
  check Alcotest.int "empty" 0 (Array.length (Value.to_array_exn (floats [])))

let test_set_field () =
  let r = Value.Record [ ("a", Value.Int 1L) ] in
  let r2 = Value.set_field r "a" (Value.Int 9L) in
  check bool "replace" true (Value.field_exn r2 "a" = Value.Int 9L);
  let r3 = Value.set_field r "b" (Value.String "new") in
  check bool "append" true (Value.field r3 "b" = Some (Value.String "new"));
  check bool "original untouched" true (Value.field_exn r "a" = Value.Int 1L);
  try
    ignore (Value.set_field (Value.Int 1L) "x" (Value.Int 2L));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* The update shares what it does not change: the bindings it keeps,
   and the list after the last binding it replaces. *)
let test_set_field_shares () =
  let r =
    [ ("a", Value.Int 1L); ("b", Value.Int 2L); ("a", Value.Int 3L)
    ; ("c", Value.Int 4L); ("d", Value.Int 5L) ]
  in
  (match Value.set_field (Value.Record r) "a" (Value.Int 9L) with
  | Value.Record ([ _; b; _; _; _ ] as r') ->
    check bool "kept binding shared" true (b == List.nth r 1);
    check bool "tail after the last replaced one shared" true
      (List.tl (List.tl (List.tl r')) == List.tl (List.tl (List.tl r)))
  | _ -> Alcotest.fail "expected five bindings");
  match Value.set_field (Value.Record r) "d" (Value.Int 9L) with
  | Value.Record r' ->
    check bool "binding before the replaced one shared" true
      (List.nth r' 3 == List.nth r 3)
  | _ -> Alcotest.fail "expected a record"

(* the old implementation, kept as the oracle: map every binding of the
   name, or append one *)
let set_field_oracle record name v =
  match record with
  | Value.Record fields ->
    if List.mem_assoc name fields then
      Value.Record
        (List.map
           (fun (k, old) -> if String.equal k name then (k, v) else (k, old))
           fields)
    else Value.Record (fields @ [ (name, v) ])
  | _ -> invalid_arg "Value.set_field: not a record"

(* records over a four-name alphabet, so names repeat; the updated
   name is drawn from five, so it is often absent *)
let prop_set_field_oracle =
  let open QCheck in
  let name = Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let binding =
    Gen.pair (Gen.oneofl [ "a"; "b"; "c"; "d" ]) (Gen.map Int64.of_int Gen.small_int)
  in
  Test.make ~name:"set_field equals map-or-append" ~count:500
    (make
       ~print:(fun (fs, n, v) ->
         Printf.sprintf "%s <- %s = %Ld"
           (Value.to_string (Value.Record (List.map (fun (k, x) -> (k, Value.Int x)) fs)))
           n v)
       Gen.(triple (list_size (int_bound 8) binding) name (map Int64.of_int small_int)))
    (fun (fs, name, v) ->
      let r = Value.Record (List.map (fun (k, x) -> (k, Value.Int x)) fs) in
      let got = Value.set_field r name (Value.Int v) in
      let want = set_field_oracle r name (Value.Int v) in
      (* same bindings in the same order, names included *)
      Value.equal got want && got = want)

(* [Struct] is another representation of a [Record] with unique names,
   not another value: equality and printing cannot tell the two apart *)

(* bindings under distinct names, in a random order *)
let unique_bindings =
  let open QCheck.Gen in
  let* names = shuffle_l [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let* n = int_bound 6 in
  let names = List.filteri (fun i _ -> i < n) names in
  let+ xs = list_repeat n (map Int64.of_int small_int) in
  List.combine names (List.map (fun x -> Value.Int x) xs)

let struct_of bindings =
  Value.Struct
    { names = Array.of_list (List.map fst bindings)
    ; values = Array.of_list (List.map snd bindings) }

let print_bindings b = Value.to_string (Value.Record b)

let prop_struct_is_its_record =
  QCheck.Test.make ~name:"struct equals and prints as its record" ~count:300
    (QCheck.make ~print:print_bindings unique_bindings)
    (fun b ->
      let s = struct_of b and r = Value.Record b in
      Value.equal s r && Value.equal r s
      && Value.equal s (struct_of b)
      && String.equal (Value.to_string s) (Value.to_string r))

(* one change to the bindings at [i]: its value, its name, or its place *)
let prop_struct_differs =
  let open QCheck in
  let gen =
    Gen.(
      let* b = unique_bindings in
      let* i = int_bound (max 0 (List.length b - 1)) in
      let+ change = oneofl [ `Value; `Name; `Reorder ] in
      (b, i, change))
  in
  Test.make ~name:"struct differs after a change" ~count:300
    (make ~print:(fun (b, i, _) -> Printf.sprintf "%s at %d" (print_bindings b) i) gen)
    (fun (b, i, change) ->
      assume (b <> [] && (change <> `Reorder || List.length b >= 2));
      let changed =
        match change with
        | `Value ->
          List.mapi
            (fun j (k, v) ->
              if j = i then (k, Value.Int (Int64.succ (Value.to_int64 v))) else (k, v))
            b
        | `Name -> List.mapi (fun j (k, v) -> if j = i then ("z", v) else (k, v)) b
        | `Reorder ->
          (* move the binding at [i] to the other end *)
          let x = List.nth b i and rest = List.filteri (fun j _ -> j <> i) b in
          if i = 0 then rest @ [ x ] else x :: rest
      in
      let s = struct_of changed in
      (not (Value.equal s (Value.Record b)))
      && (not (Value.equal (Value.Record b) s))
      && not (Value.equal s (struct_of b)))

(* on a struct, [set_field] agrees with the list oracle, and a present
   name keeps the struct positional and its names shared *)
let prop_set_field_struct =
  let open QCheck in
  let gen =
    Gen.(
      triple unique_bindings
        (oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ])
        (map Int64.of_int small_int))
  in
  Test.make ~name:"set_field on a struct equals the oracle" ~count:500
    (make
       ~print:(fun (b, n, v) -> Printf.sprintf "%s <- %s = %Ld" (print_bindings b) n v)
       gen)
    (fun (b, name, v) ->
      let s = struct_of b in
      let got = Value.set_field s name (Value.Int v) in
      let want = set_field_oracle (Value.Record b) name (Value.Int v) in
      Value.equal got want
      && Value.equal s (Value.Record b)
      &&
      match (s, got) with
      | Value.Struct s, Value.Struct g -> List.mem_assoc name b && g.names == s.names
      | _, Value.Record _ -> not (List.mem_assoc name b)
      | _ -> false)

(* paper-a's record in both forms *)
let both_forms () =
  let r = Omf_fixtures.Paper_structs.value_a in
  let b = Value.(match r with Record b -> b | v -> invalid_arg (to_string v)) in
  [ ("record", r); ("struct", struct_of b) ]

let test_field_exn_allocates_nothing () =
  List.iter
    (fun (what, r) ->
      let bytes =
        Omf_testkit.Alloc.bytes_per_call ~iters:1000 (fun () ->
            Value.field_exn r "eta")
      in
      if bytes >= 1.0 then
        Alcotest.failf "Value.field_exn on a %s allocates %.1f B per call (budget 0)"
          what bytes)
    (both_forms ())

let test_struct_equal_allocates_nothing () =
  let forms = both_forms () in
  List.iter
    (fun (a, x) ->
      List.iter
        (fun (b, y) ->
          let bytes =
            Omf_testkit.Alloc.bytes_per_call ~iters:1000 (fun () -> Value.equal x y)
          in
          if bytes >= 1.0 then
            Alcotest.failf "Value.equal of a %s and a %s allocates %.1f B per call"
              a b bytes)
        forms)
    forms

let test_coercion_errors () =
  let expect_type_error f =
    try
      ignore (f ());
      Alcotest.fail "expected Type_error"
    with Value.Type_error _ -> ()
  in
  expect_type_error (fun () -> Value.to_int64 (Value.String "no"));
  expect_type_error (fun () -> Value.to_float_exn (Value.String "no"));
  expect_type_error (fun () -> Value.to_string_exn (Value.Int 1L));
  expect_type_error (fun () -> Value.to_array_exn (Value.Int 1L));
  (* chars coerce to their codes; ints coerce to floats *)
  check bool "char to int64" true (Value.to_int64 (Value.Char 'A') = 65L);
  check bool "int to float" true (Value.to_float_exn (Value.Int 2L) = 2.0)

let test_field_exn_message () =
  try
    ignore (Value.field_exn (Value.Record []) "missing");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument m ->
    check bool "mentions the field" true
      (Omf_testkit.Strings.replace ~sub:"missing" ~by:"" m <> m)

(* ------------------------------------------------------------------ *)
(* Ftype printing                                                       *)
(* ------------------------------------------------------------------ *)

let test_ftype_pp () =
  let text = Fmt.str "%a" Ftype.pp Omf_fixtures.Paper_structs.decl_b in
  List.iter
    (fun needle ->
      check bool ("declaration prints " ^ needle) true
        (Omf_testkit.Strings.replace ~sub:needle ~by:"" text <> text))
    [ "format ASDOffEventB"; {|"unsigned long[5]"|}
    ; {|"unsigned long[eta_count]"|} ]

let test_elem_to_string_total () =
  (* every integer prim has a printable spelling that parses back *)
  List.iter
    (fun p ->
      let e = Ftype.Int_t p in
      let s = Ftype.elem_to_string e in
      check bool (s ^ " parses back") true
        (match Ftype.of_type_string s with
        | Ftype.Int_t _, Ftype.Scalar -> true
        | _ -> false))
    [ Abi.Short; Abi.Ushort; Abi.Int; Abi.Uint; Abi.Long; Abi.Ulong
    ; Abi.Longlong; Abi.Ulonglong ]

(* ------------------------------------------------------------------ *)
(* Catalog printing                                                     *)
(* ------------------------------------------------------------------ *)

let test_catalog_pp () =
  let c = Omf_xml2wire.Catalog.create Abi.sparc_32 in
  ignore
    (Omf_xml2wire.Catalog.register c ~source:"unit-test"
       Omf_fixtures.Paper_structs.decl_a);
  let text = Fmt.str "%a" Omf_xml2wire.Catalog.pp c in
  List.iter
    (fun needle ->
      check bool ("catalog prints " ^ needle) true
        (Omf_testkit.Strings.replace ~sub:needle ~by:"" text <> text))
    [ "sparc-32"; "ASDOffEvent"; "32 bytes"; "unit-test" ]

let () =
  Alcotest.run "values"
    [ ( "value",
        [ Alcotest.test_case "pretty printing" `Quick test_pp_forms
        ; Alcotest.test_case "equality corners" `Quick test_equal_corner_cases
        ; Alcotest.test_case "floats equal boxed floats" `Quick
            test_floats_equal_boxed
        ; Alcotest.test_case "floats differ from ints" `Quick
            test_floats_unequal_ints
        ; Alcotest.test_case "floats print as boxed" `Quick test_floats_pp
        ; Alcotest.test_case "floats to_array_exn" `Quick test_floats_to_array
        ; Alcotest.test_case "set_field" `Quick test_set_field
        ; Alcotest.test_case "set_field shares its spine" `Quick
            test_set_field_shares
        ; Alcotest.test_case "field_exn allocates nothing" `Quick
            test_field_exn_allocates_nothing
        ; Alcotest.test_case "struct equality allocates nothing" `Quick
            test_struct_equal_allocates_nothing
        ; Alcotest.test_case "coercion errors" `Quick test_coercion_errors
        ; Alcotest.test_case "field_exn message" `Quick test_field_exn_message ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_set_field_oracle; prop_struct_is_its_record; prop_struct_differs
            ; prop_set_field_struct ] )
    ; ( "ftype",
        [ Alcotest.test_case "declaration printing" `Quick test_ftype_pp
        ; Alcotest.test_case "spellings parse back" `Quick
            test_elem_to_string_total ] )
    ; ( "catalog",
        [ Alcotest.test_case "catalog printing" `Quick test_catalog_pp ] ) ]
