(** Tests for the two baseline wire formats: XDR (RFC 1014) and XML text.
    Both must round-trip the paper's fixtures across heterogeneous ABIs,
    and must exhibit the size characteristics the paper cites (XDR close
    to binary, XML 6-8x larger). *)

open Omf_machine
open Omf_pbio.Pbio
module Xdr = Omf_xdr.Xdr
module Xmlwire = Omf_xmlwire.Xmlwire
module Fx = Omf_fixtures.Paper_structs
module Decode = Omf_util.Decode

let check = Alcotest.check
let bool = Alcotest.bool

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

let formats_for abi decls name =
  let reg = Registry.create abi in
  List.iter (fun d -> ignore (Registry.register reg d)) decls;
  Option.get (Registry.find reg name)

let normalize abi decls name v =
  let fmt = formats_for abi decls name in
  let mem = Memory.create abi in
  Native.load mem fmt (Native.store mem fmt v)

(* ------------------------------------------------------------------ *)
(* XDR                                                                  *)
(* ------------------------------------------------------------------ *)

let xdr_transfer sender_abi receiver_abi decls name v =
  let sfmt = formats_for sender_abi decls name in
  let rfmt = formats_for receiver_abi decls name in
  let smem = Memory.create sender_abi in
  let addr = Native.store smem sfmt v in
  let sent = Native.load smem sfmt addr in
  let wire = Xdr.encode smem sfmt addr in
  let rmem = Memory.create receiver_abi in
  let received = Native.load rmem rfmt (Xdr.decode rfmt rmem wire) in
  (sent, received, wire)

let test_xdr_known_layout () =
  (* {int 1; string "ab"} -> 00000001 | len=2 "ab" + 2 pad *)
  let decl = Ftype.declare "t" [ ("n", "integer"); ("s", "string") ] in
  let fmt = formats_for Abi.x86_64 [ decl ] "t" in
  let wire =
    Xdr.encode_value Abi.x86_64 fmt
      (Value.Record [ ("n", Value.Int 1L); ("s", Value.String "ab") ])
  in
  check Alcotest.string "canonical XDR bytes" "000000010000000261620000"
    (Omf_util.Hexdump.short wire)

let test_xdr_cross_abi () =
  List.iter
    (fun (sender, receiver) ->
      let sent, received, _ =
        xdr_transfer sender receiver [ Fx.decl_b ] "ASDOffEventB" Fx.value_b
      in
      check value_testable
        (Printf.sprintf "XDR B %s -> %s" sender.Abi.name receiver.Abi.name)
        sent received;
      let sent, received, _ =
        xdr_transfer sender receiver [ Fx.decl_c; Fx.decl_d ] "threeASDOffs"
          Fx.value_d
      in
      check value_testable
        (Printf.sprintf "XDR D %s -> %s" sender.Abi.name receiver.Abi.name)
        sent received)
    [ (Abi.x86_64, Abi.sparc_32); (Abi.sparc_64, Abi.x86_32)
    ; (Abi.x86_32, Abi.x86_32) ]

let test_xdr_size_is_modest () =
  (* XDR stays within ~2x of NDR for the paper fixtures *)
  let fmt = formats_for Abi.sparc_32 [ Fx.decl_a ] "ASDOffEvent" in
  let xdr = Xdr.encode_value Abi.sparc_32 fmt Fx.value_a in
  let ndr = Encode.payload_of_value Abi.sparc_32 fmt Fx.value_a in
  check bool "XDR size close to NDR size" true
    (Bytes.length xdr < 2 * Bytes.length ndr)

let test_xdr_rejects_truncation () =
  let fmt = formats_for Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" in
  let wire = Xdr.encode_value Abi.x86_64 fmt Fx.value_a in
  let truncated = Bytes.sub wire 0 (Bytes.length wire - 4) in
  (try
     ignore (Xdr.decode_value Abi.x86_64 fmt truncated);
     Alcotest.fail "expected a truncated decode error"
   with Decode.Error { layer = "xdr"; reason = Truncated; _ } -> ());
  let padded = Bytes.cat wire (Bytes.make 4 '\000') in
  try
    ignore (Xdr.decode_value Abi.x86_64 fmt padded);
    Alcotest.fail "expected an inconsistent decode error (trailing)"
  with Decode.Error { layer = "xdr"; reason = Inconsistent; offset } ->
    check Alcotest.int "at the first trailing byte" (Bytes.length wire) offset

(* A dynamic array's count travels twice in XDR: as its own prefix and
   as the control field. A message whose two counts disagree is
   refused, whether the control field comes before the array or after
   it; a loader would otherwise trust a count the array lacks. *)
let test_xdr_control_field_must_match () =
  let shape = Omf_testkit.Shapes.strvar in
  let fmt = Omf_testkit.Shapes.register Abi.x86_64 shape in
  let wire = Xdr.encode_value Abi.x86_64 fmt shape.value in
  (* name = "probe-7": u32 7, 7 bytes, 1 pad; then n (5) at 12, vals'
     own count at 16 and 5 doubles; tags' count (3) at 60, then "a"
     (8 bytes), "" (4) and "ccc" (8); then k (3) at 84 *)
  check Alcotest.int "n" 5 (Int32.to_int (Bytes.get_int32_be wire 12));
  check Alcotest.int "vals count" 5 (Int32.to_int (Bytes.get_int32_be wire 16));
  check Alcotest.int "k" 3 (Int32.to_int (Bytes.get_int32_be wire 84));
  List.iter
    (fun (what, at, v) ->
      let b = Bytes.copy wire in
      Bytes.set_int32_be b at (Int32.of_int v);
      match Xdr.decode_value Abi.x86_64 fmt b with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Decode.Error { layer = "xdr"; reason = Inconsistent; _ } -> ())
    [ ("control before its array", 12, 1_000_000)
    ; ("control after its array", 84, 1_000) ];
  (* two arrays on one control, both before it: the second array's count
     must agree with the first's, not only with the control *)
  let fmt =
    formats_for Abi.x86_64
      [ Ftype.declare "shared"
          [ ("xs", "integer[n]"); ("ys", "integer[n]"); ("n", "integer") ] ]
      "shared"
  in
  let ints l = Value.Array (Array.of_list (List.map (fun i -> Value.Int i) l)) in
  let v = Value.Record [ ("xs", ints [ 1L; 2L ]); ("ys", ints [ 3L; 4L ]); ("n", Value.Int 2L) ] in
  check value_testable "agreeing counts decode" (ints [ 3L; 4L ])
    (Value.field_exn
       (Xdr.decode_value Abi.x86_64 fmt (Xdr.encode_value Abi.x86_64 fmt v))
       "ys");
  (* xs = [10], ys = [20; 21], n = 2 *)
  let b = Bytes.create 24 in
  List.iteri (fun i v -> Bytes.set_int32_be b (4 * i) (Int32.of_int v)) [ 1; 10; 2; 20; 21; 2 ];
  (match Xdr.decode_value Abi.x86_64 fmt b with
  | _ -> Alcotest.fail "arrays sharing a control with two counts: accepted"
  | exception Decode.Error { layer = "xdr"; reason = Inconsistent; offset } ->
    check Alcotest.int "at the second array's count" 8 offset);
  (* XML implies the shared control from the repetitions: xs and ys
     must repeat equally often, as value and as native struct *)
  let text =
    "<shared><xs>1</xs><xs>2</xs><ys>7</ys><ys>8</ys><ys>9</ys></shared>"
  in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "xml %s: unequal repetitions accepted" what
    | exception Decode.Error { layer = "xml"; reason = Inconsistent; _ } -> ()
  in
  refused "decode_value" (fun () -> ignore (Xmlwire.decode_value fmt text));
  refused "decode" (fun () ->
      ignore (Xmlwire.decode fmt (Memory.create Abi.x86_64) text));
  check value_testable "equal repetitions decode" (Value.Int 2L)
    (Value.field_exn (Xmlwire.decode_value fmt (Xmlwire.encode_value fmt v)) "n")

let test_xdr_empty_dynamic_array () =
  let v =
    Value.set_field Fx.value_b "eta" (Value.Array [||]) |> fun v ->
    Value.set_field v "eta_count" (Value.Int 0L)
  in
  let sent, received, _ =
    xdr_transfer Abi.x86_64 Abi.sparc_32 [ Fx.decl_b ] "ASDOffEventB" v
  in
  check value_testable "XDR empty dynamic array" sent received

let prop_xdr_roundtrip =
  QCheck.Test.make ~name:"XDR cross-ABI round-trip (random formats)" ~count:150
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let rreg = Registry.create receiver_abi in
      let rfmt = Registry.register rreg sfmt.Format.decl in
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let sent = Native.load smem sfmt addr in
      let wire = Xdr.encode smem sfmt addr in
      let rmem = Memory.create receiver_abi in
      let received = Native.load rmem rfmt (Xdr.decode rfmt rmem wire) in
      Value.equal sent received)

(* ------------------------------------------------------------------ *)
(* XML text wire                                                        *)
(* ------------------------------------------------------------------ *)

let xml_transfer sender_abi receiver_abi decls name v =
  let sfmt = formats_for sender_abi decls name in
  let rfmt = formats_for receiver_abi decls name in
  let smem = Memory.create sender_abi in
  let addr = Native.store smem sfmt v in
  let sent = Native.load smem sfmt addr in
  let text = Xmlwire.encode smem sfmt addr in
  let rmem = Memory.create receiver_abi in
  let received = Native.load rmem rfmt (Xmlwire.decode rfmt rmem text) in
  (sent, received, text)

let test_xmlwire_roundtrip_fixtures () =
  List.iter
    (fun (decls, name, v) ->
      let sent, received, _ =
        xml_transfer Abi.x86_64 Abi.sparc_32 decls name v
      in
      check value_testable ("XML wire " ^ name) sent received)
    [ ([ Fx.decl_a ], "ASDOffEvent", Fx.value_a)
    ; ([ Fx.decl_b ], "ASDOffEventB", Fx.value_b)
    ; ([ Fx.decl_c; Fx.decl_d ], "threeASDOffs", Fx.value_d) ]

let test_xmlwire_expansion_factor () =
  (* section 6: "an expansion factor of 6-8 is not unusual" for binary
     payloads. Use a numeric-heavy structure (the scientific case). *)
  let decl =
    Ftype.declare "samples" [ ("data", "double[64]"); ("seq", "integer") ]
  in
  let fmt = formats_for Abi.x86_64 [ decl ] "samples" in
  let v =
    Value.Record
      [ ("data",
         Value.Array (Array.init 64 (fun i -> Value.Float (float_of_int i *. 1.7))))
      ; ("seq", Value.Int 42L) ]
  in
  let text = Xmlwire.encode_value fmt v in
  let ndr = Encode.payload_of_value Abi.x86_64 fmt v in
  let factor = float_of_int (String.length text) /. float_of_int (Bytes.length ndr) in
  check bool
    (Printf.sprintf "expansion factor %.1f in [2, 12]" factor)
    true
    (factor >= 2.0 && factor <= 12.0)

let test_xmlwire_self_describing () =
  (* decode does not need sender layout info, only the logical format *)
  let fmt = formats_for Abi.sparc_32 [ Fx.decl_a ] "ASDOffEvent" in
  let text = Xmlwire.encode_value fmt (normalize Abi.sparc_32 [ Fx.decl_a ] "ASDOffEvent" Fx.value_a) in
  let v = Xmlwire.decode_value fmt text in
  check value_testable "decoded from text alone"
    (normalize Abi.sparc_32 [ Fx.decl_a ] "ASDOffEvent" Fx.value_a) v

let test_xmlwire_rejects_garbage () =
  let fmt = formats_for Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" in
  List.iter
    (fun text ->
      try
        ignore (Xmlwire.decode_value fmt text);
        Alcotest.failf "expected a decode error for %s" text
      with Decode.Error { layer = "xml"; _ } -> ())
    [ "not xml at all"
    ; "<WrongRoot/>"
    ; "<ASDOffEvent><cntrID>x</cntrID></ASDOffEvent>" (* missing fields *)
    ; {|<ASDOffEvent><cntrID>x</cntrID><arln>y</arln><fltNum>NaNope</fltNum>
        <equip>e</equip><org>o</org><dest>d</dest><off>1</off><eta>2</eta></ASDOffEvent>|}
    ]

let test_xmlwire_escapes_content () =
  let decl = Ftype.declare "msg" [ ("body", "string") ] in
  let fmt = formats_for Abi.x86_64 [ decl ] "msg" in
  let v = Value.Record [ ("body", Value.String "a <b> & \"c\"") ] in
  let text = Xmlwire.encode_value fmt v in
  check value_testable "markup-significant content survives" v
    (Xmlwire.decode_value fmt text)

(* decoded straight from the text, a record comes back as [Native.load]
   returns it: positional, under the format's own names, with every
   float array one [Floats] and each control field its array's count *)
let test_xmlwire_float_arrays () =
  let decl =
    Ftype.declare "probe"
      [ ("n", "integer"); ("d", "double[n]"); ("f", "float[3]")
      ; ("k", "unsigned long"); ("i", "integer[k]") ]
  in
  let v =
    Value.Record
      [ ("d", Value.Floats (Float.Array.of_list [ 1.5; -0.0; 1e300 ]))
      ; ("f", Value.Array [| Value.Float 0.25; Value.Float 2.0; Value.Float (-8.0) |])
      ; ("i", Value.Array [| Value.Int 7L |]) ]
  in
  List.iter
    (fun abi ->
      let fmt = formats_for abi [ decl ] "probe" in
      let ndr = normalize abi [ decl ] "probe" v in
      let xml = Xmlwire.decode_value fmt (Xmlwire.encode_value fmt ndr) in
      check value_testable (abi.Abi.name ^ ": equals the NDR round-trip") ndr xml;
      match xml with
      | Value.Struct { names; values } ->
        check bool "the format's names" true (names == fmt.Format.names);
        List.iter
          (fun i ->
            check bool (names.(i) ^ " decodes to Floats") true
              (match values.(i) with Value.Floats _ -> true | _ -> false))
          [ 1; 2 ];
        check value_testable "unsigned control" (Value.Uint 1L) values.(3)
      | v -> Alcotest.failf "decoded %s" (Value.to_string v))
    [ Abi.x86_64; Abi.sparc_32 ]

let prop_xmlwire_roundtrip =
  QCheck.Test.make ~name:"XML wire round-trip (random formats)" ~count:150
    (QCheck.make (Omf_testkit.Gen.format_and_value ()))
    (fun (abi, fmt, v) ->
      let mem = Memory.create abi in
      let addr = Native.store mem fmt v in
      let sent = Native.load mem fmt addr in
      let text = Xmlwire.encode mem fmt addr in
      let rmem = Memory.create abi in
      let received = Native.load rmem fmt (Xmlwire.decode fmt rmem text) in
      Value.equal sent received)

(* ------------------------------------------------------------------ *)
(* Agreement between all three wire formats                             *)
(* ------------------------------------------------------------------ *)

let test_all_wire_formats_agree () =
  let sent_ndr, recv_ndr =
    let sreg = Registry.create Abi.x86_64 in
    let rreg = Registry.create Abi.sparc_32 in
    ignore (Registry.register sreg Fx.decl_b);
    ignore (Registry.register rreg Fx.decl_b);
    let sfmt = Option.get (Registry.find sreg "ASDOffEventB") in
    let smem = Memory.create Abi.x86_64 in
    let addr = Native.store smem sfmt Fx.value_b in
    let msg = message smem sfmt addr in
    let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
    ignore (Receiver.learn receiver (Format_codec.encode sfmt));
    (Native.load smem sfmt addr, snd (Receiver.receive_value receiver msg))
  in
  let _, recv_xdr, _ =
    xdr_transfer Abi.x86_64 Abi.sparc_32 [ Fx.decl_b ] "ASDOffEventB" Fx.value_b
  in
  let _, recv_xml, _ =
    xml_transfer Abi.x86_64 Abi.sparc_32 [ Fx.decl_b ] "ASDOffEventB" Fx.value_b
  in
  check value_testable "NDR = sent" sent_ndr recv_ndr;
  check value_testable "XDR agrees with NDR" recv_ndr recv_xdr;
  check value_testable "XML wire agrees with NDR" recv_ndr recv_xml

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "baselines"
    [ ( "xdr",
        [ Alcotest.test_case "canonical layout" `Quick test_xdr_known_layout
        ; Alcotest.test_case "cross-ABI round-trips" `Quick test_xdr_cross_abi
        ; Alcotest.test_case "size close to binary" `Quick test_xdr_size_is_modest
        ; Alcotest.test_case "truncation rejected" `Quick test_xdr_rejects_truncation
        ; Alcotest.test_case "control field must match its array" `Quick
            test_xdr_control_field_must_match
        ; Alcotest.test_case "empty dynamic arrays" `Quick
            test_xdr_empty_dynamic_array ]
        @ qsuite [ prop_xdr_roundtrip ] )
    ; ( "xmlwire",
        [ Alcotest.test_case "fixture round-trips" `Quick
            test_xmlwire_roundtrip_fixtures
        ; Alcotest.test_case "expansion factor" `Quick test_xmlwire_expansion_factor
        ; Alcotest.test_case "self-describing" `Quick test_xmlwire_self_describing
        ; Alcotest.test_case "garbage rejected" `Quick test_xmlwire_rejects_garbage
        ; Alcotest.test_case "content escaping" `Quick test_xmlwire_escapes_content
        ; Alcotest.test_case "float arrays decode to Floats" `Quick
            test_xmlwire_float_arrays ]
        @ qsuite [ prop_xmlwire_roundtrip ] )
    ; ( "agreement",
        [ Alcotest.test_case "NDR / XDR / XML produce equal values" `Quick
            test_all_wire_formats_agree ] ) ]
