(** Focused tests of the conversion-plan compiler: exactly which op
    sequences come out of known format pairs — coalescing across padding,
    bulk array folding, byte-order sensitivity, and evolution edge cases.
    (Semantics are covered by the round-trip properties in test_pbio;
    these tests pin down the *shape* of the plans, which is what the DCG
    performance argument rests on.) *)

open Omf_machine
open Omf_pbio.Pbio
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

let fmt_for abi decl =
  let reg = Registry.create abi in
  Registry.register reg decl

let wire_of fmt = Format_codec.decode (Format_codec.encode fmt)

let plan ?(optimized = true) ~sender ~receiver decl =
  let w = wire_of (fmt_for sender decl) in
  let n = fmt_for receiver decl in
  if optimized then Convert.compile ~wire:w ~native:n
  else Convert.compile_unoptimized ~wire:w ~native:n

(* ------------------------------------------------------------------ *)
(* Coalescing                                                           *)
(* ------------------------------------------------------------------ *)

let test_numeric_struct_one_blit () =
  (* all-numeric, identical layouts: one op *)
  let d =
    Ftype.declare "nums"
      [ ("a", "char"); ("b", "integer"); ("c", "double"); ("d", "short") ]
  in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.x86_64 d in
  check int "single blit despite padding gaps" 1 (Convert.op_count p)

let test_same_layout_different_machines_one_blit () =
  (* x86-64 and alpha-64 are layout-equal: still one blit *)
  let d = Ftype.declare "nums" [ ("a", "integer"); ("b", "double") ] in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.alpha_64 d in
  check int "cross-machine blit" 1 (Convert.op_count p)

let test_byte_swap_prevents_coalescing () =
  let d = Ftype.declare "nums" [ ("a", "integer"); ("b", "integer") ] in
  let homo = plan ~sender:Abi.x86_64 ~receiver:Abi.x86_64 d in
  let swap = plan ~sender:Abi.x86_64 ~receiver:Abi.power_64 d in
  check int "homogeneous: 1 op" 1 (Convert.op_count homo);
  check int "byte-swapped: one op per field" 2 (Convert.op_count swap)

let test_chars_coalesce_even_across_orders () =
  (* single-byte fields are order-independent: they still merge *)
  let d = Ftype.declare "cc" [ ("a", "char"); ("b", "char"); ("c", "char") ] in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.sparc_64 d in
  check int "chars blit together despite endianness" 1 (Convert.op_count p)

let test_strings_break_blits () =
  let d =
    Ftype.declare "mixed" [ ("a", "integer"); ("s", "string"); ("b", "integer") ]
  in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.x86_64 d in
  (* blit(a) + str(s) + blit(b): pointer slots can never be copied *)
  check int "three ops" 3 (Convert.op_count p)

let test_resize_prevents_coalescing () =
  (* same byte order, but long is 4 bytes on one side and 8 on the other *)
  let d = Ftype.declare "l" [ ("a", "long"); ("b", "long") ] in
  let p = plan ~sender:Abi.x86_32 ~receiver:Abi.x86_64 d in
  check int "per-field resize ops" 2 (Convert.op_count p)

(* ------------------------------------------------------------------ *)
(* Arrays                                                               *)
(* ------------------------------------------------------------------ *)

let test_fixed_array_folds_into_blit () =
  let d = Ftype.declare "arr" [ ("data", "double[16]") ] in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.x86_64 d in
  check int "fixed array is one blit" 1 (Convert.op_count p)

let test_unoptimized_keeps_per_field_ops () =
  let d =
    Ftype.declare "nums"
      [ ("a", "integer"); ("b", "integer"); ("data", "double[16]") ]
  in
  let opt = plan ~sender:Abi.x86_64 ~receiver:Abi.x86_64 d in
  let raw = plan ~optimized:false ~sender:Abi.x86_64 ~receiver:Abi.x86_64 d in
  check int "optimised collapses" 1 (Convert.op_count opt);
  (* raw: a, b as Num ops + a Loop for the array *)
  check int "unoptimised keeps structure" 3 (Convert.op_count raw)

let test_swapped_array_is_one_op () =
  (* same widths, opposite byte orders: one swap pass per array *)
  let fixed = Ftype.declare "arr" [ ("data", "double[16]") ] in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.sparc_64 fixed in
  check int "fixed array is one swap" 1 (Convert.op_count p);
  let raw =
    plan ~optimized:false ~sender:Abi.x86_64 ~receiver:Abi.sparc_64 fixed
  in
  check int "unoptimised: one loop" 1 (Convert.op_count raw);
  let var = Ftype.declare "v" [ ("n", "integer"); ("data", "short[n]") ] in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.power_64 var in
  check int "count + var-array ops" 2 (Convert.op_count p);
  let v =
    Value.Record
      [ ("data", Value.Array (Array.init 5 (fun i -> Value.Int (Int64.of_int (i - 2))))) ]
  in
  let sfmt = fmt_for Abi.x86_64 var in
  let nfmt = fmt_for Abi.power_64 var in
  let smem = Memory.create Abi.x86_64 in
  let payload = Encode.payload smem sfmt (Native.store smem sfmt v) in
  let rmem = Memory.create Abi.power_64 in
  let got =
    Native.load rmem nfmt
      (Convert.run (Convert.compile ~wire:(wire_of sfmt) ~native:nfmt) payload rmem)
  in
  check value_testable "swapped shorts keep their values"
    (Value.field_exn v "data") (Value.field_exn got "data")

let test_var_array_stays_one_op () =
  let d =
    Ftype.declare "v" [ ("n", "integer"); ("data", "double[n]") ]
  in
  let p = plan ~sender:Abi.x86_64 ~receiver:Abi.x86_64 d in
  (* n merges into... n is a Num adjacent to nothing (data is a pointer
     slot handled by Var_array); expect 2 ops: blit(n) + var_array *)
  check int "count + var-array ops" 2 (Convert.op_count p)

(* ------------------------------------------------------------------ *)
(* Evolution edges                                                      *)
(* ------------------------------------------------------------------ *)

let run_pair ~sender_decl ~receiver_decl v =
  let sfmt = fmt_for Abi.x86_64 sender_decl in
  let nfmt = fmt_for Abi.sparc_32 receiver_decl in
  let smem = Memory.create Abi.x86_64 in
  let addr = Native.store smem sfmt v in
  let payload = Encode.payload smem sfmt addr in
  let p = Convert.compile ~wire:(wire_of sfmt) ~native:nfmt in
  let rmem = Memory.create Abi.sparc_32 in
  Native.load rmem nfmt (Convert.run p payload rmem)

let test_fixed_array_shrinks_and_grows () =
  let d5 = Ftype.declare "a" [ ("x", "integer[5]") ] in
  let d3 = Ftype.declare "a" [ ("x", "integer[3]") ] in
  let five =
    Value.Record
      [ ("x", Value.Array (Array.init 5 (fun i -> Value.Int (Int64.of_int i)))) ]
  in
  (* wire 5 -> native 3: first three survive *)
  let got = run_pair ~sender_decl:d5 ~receiver_decl:d3 five in
  check value_testable "truncated to 3"
    (Value.Array [| Value.Int 0L; Value.Int 1L; Value.Int 2L |])
    (Value.field_exn got "x");
  (* wire 3 -> native 5: tail zero-filled *)
  let three =
    Value.Record
      [ ("x", Value.Array (Array.init 3 (fun i -> Value.Int (Int64.of_int i)))) ]
  in
  let got = run_pair ~sender_decl:d3 ~receiver_decl:d5 three in
  check value_testable "zero-extended to 5"
    (Value.Array
       [| Value.Int 0L; Value.Int 1L; Value.Int 2L; Value.Int 0L; Value.Int 0L |])
    (Value.field_exn got "x")

(* A control renamed between versions: the receiver's control takes the
   wire array's own count, whether the wire has no field of the new name
   or a stale one, and the interpreter agrees. Two native arrays sharing
   a control the wire counts apart are refused. *)
let test_renamed_control () =
  let xs = Value.Array (Array.init 3 (fun i -> Value.Int (Int64.of_int i))) in
  let renamed =
    Ftype.declare "r" [ ("count", "integer"); ("xs", "integer[count]") ]
  in
  let received sender_decl v =
    let got = run_pair ~sender_decl ~receiver_decl:renamed v in
    check value_testable "count from the wire's control" (Value.Int 3L)
      (Value.field_exn got "count");
    check value_testable "every element" xs (Value.field_exn got "xs")
  in
  received
    (Ftype.declare "r" [ ("n", "integer"); ("xs", "integer[n]") ])
    (Value.Record [ ("xs", xs) ]);
  let stale =
    Ftype.declare "r"
      [ ("count", "integer"); ("n", "integer"); ("xs", "integer[n]") ]
  in
  received stale (Value.Record [ ("count", Value.Int 7L); ("xs", xs) ]);
  let sfmt = fmt_for Abi.x86_64 stale in
  let nfmt = fmt_for Abi.sparc_32 renamed in
  let smem = Memory.create Abi.x86_64 in
  let payload =
    Encode.payload smem sfmt
      (Native.store smem sfmt (Value.Record [ ("count", Value.Int 7L); ("xs", xs) ]))
  in
  let rmem = Memory.create Abi.sparc_32 in
  check value_testable "interpreted alike" (Value.Int 3L)
    (Value.field_exn
       (Native.load rmem nfmt (Convert.interpret ~wire:(wire_of sfmt) ~native:nfmt payload rmem))
       "count");
  let two control_ys =
    Ftype.declare "s"
      [ ("a", "integer"); ("b", "integer"); ("xs", "integer[a]")
      ; ("ys", "integer[" ^ control_ys ^ "]") ]
  in
  match
    Convert.compile
      ~wire:(wire_of (fmt_for Abi.x86_64 (two "b")))
      ~native:(fmt_for Abi.sparc_32 (two "a"))
  with
  | _ -> Alcotest.fail "a shared native control counted apart was accepted"
  | exception Convert.Field_mismatch _ -> ()

let test_signedness_of_widening_follows_wire () =
  (* a negative signed int widened into a larger signed slot must
     sign-extend *)
  let d32 = Ftype.declare "w" [ ("x", "integer") ] in
  let sfmt = fmt_for Abi.x86_32 d32 in
  let nfmt =
    fmt_for Abi.x86_64 (Ftype.declare "w" [ ("x", "long") ])
  in
  let smem = Memory.create Abi.x86_32 in
  let addr = Native.store smem sfmt (Value.Record [ ("x", Value.Int (-42L)) ]) in
  let payload = Encode.payload smem sfmt addr in
  let p = Convert.compile ~wire:(wire_of sfmt) ~native:nfmt in
  let rmem = Memory.create Abi.x86_64 in
  let got = Native.load rmem nfmt (Convert.run p payload rmem) in
  check value_testable "sign-extended" (Value.Int (-42L))
    (Value.field_exn got "x")

let test_unsigned_widening_zero_extends () =
  let sfmt = fmt_for Abi.x86_32 (Ftype.declare "w" [ ("x", "unsigned") ]) in
  let nfmt =
    fmt_for Abi.x86_64 (Ftype.declare "w" [ ("x", "unsigned long") ])
  in
  let smem = Memory.create Abi.x86_32 in
  (* 0xFFFFFFFF as a 4-byte unsigned *)
  let addr =
    Native.store smem sfmt (Value.Record [ ("x", Value.Uint 0xFFFFFFFFL) ])
  in
  let payload = Encode.payload smem sfmt addr in
  let p = Convert.compile ~wire:(wire_of sfmt) ~native:nfmt in
  let rmem = Memory.create Abi.x86_64 in
  let got = Native.load rmem nfmt (Convert.run p payload rmem) in
  check value_testable "zero-extended" (Value.Uint 0xFFFFFFFFL)
    (Value.field_exn got "x")

let test_narrowing_truncates_like_c () =
  (* big value through a narrower receiver field truncates (C cast) *)
  let sfmt = fmt_for Abi.x86_64 (Ftype.declare "w" [ ("x", "unsigned long") ]) in
  let nfmt = fmt_for Abi.x86_32 (Ftype.declare "w" [ ("x", "unsigned long") ]) in
  let smem = Memory.create Abi.x86_64 in
  let addr =
    Native.store smem sfmt (Value.Record [ ("x", Value.Uint 0x1_2345_6789L) ])
  in
  let payload = Encode.payload smem sfmt addr in
  let p = Convert.compile ~wire:(wire_of sfmt) ~native:nfmt in
  let rmem = Memory.create Abi.x86_32 in
  let got = Native.load rmem nfmt (Convert.run p payload rmem) in
  check value_testable "low 32 bits survive" (Value.Uint 0x2345_6789L)
    (Value.field_exn got "x")

let test_float_width_conversion () =
  (* wire float (4 bytes) -> native double and back *)
  let sfmt = fmt_for Abi.x86_64 (Ftype.declare "f" [ ("x", "float") ]) in
  let nfmt = fmt_for Abi.sparc_32 (Ftype.declare "f" [ ("x", "double") ]) in
  let smem = Memory.create Abi.x86_64 in
  let addr = Native.store smem sfmt (Value.Record [ ("x", Value.Float 0.5) ]) in
  let payload = Encode.payload smem sfmt addr in
  let p = Convert.compile ~wire:(wire_of sfmt) ~native:nfmt in
  let rmem = Memory.create Abi.sparc_32 in
  let got = Native.load rmem nfmt (Convert.run p payload rmem) in
  check value_testable "float widens exactly" (Value.Float 0.5)
    (Value.field_exn got "x")

let test_m68k_repacking () =
  (* 2-byte alignment on one side, natural on the other: offsets differ
     for every field after the first char *)
  let d =
    Ftype.declare "m" [ ("c", "char"); ("i", "integer"); ("d", "double") ]
  in
  let sent, received =
    let sfmt = fmt_for (Option.get (Abi.find_by_name "m68k-32")) d in
    let nfmt = fmt_for Abi.x86_64 d in
    check bool "layouts genuinely differ" false
      (Format.struct_size sfmt = Format.struct_size nfmt);
    let smem = Memory.create (Option.get (Abi.find_by_name "m68k-32")) in
    let v =
      Value.Record
        [ ("c", Value.Char 'q'); ("i", Value.Int 7L); ("d", Value.Float 2.5) ]
    in
    let addr = Native.store smem sfmt v in
    let payload = Encode.payload smem sfmt addr in
    let p = Convert.compile ~wire:(wire_of sfmt) ~native:nfmt in
    let rmem = Memory.create Abi.x86_64 in
    (Native.load smem sfmt addr, Native.load rmem nfmt (Convert.run p payload rmem))
  in
  check value_testable "m68k -> x86-64 repack" sent received

(* ------------------------------------------------------------------ *)
(* Bench shapes over every ABI pair                                     *)
(* ------------------------------------------------------------------ *)

module Shapes = Omf_testkit.Shapes

let shapes = Shapes.bench @ [ Shapes.strvar ]

let pairs =
  List.concat_map (fun s -> List.map (fun r -> (s, r)) Abi.all) Abi.all

let send (shape : Shapes.t) abi =
  let fmt = Shapes.register abi shape in
  let mem = Memory.create abi in
  (fmt, message mem fmt (Native.store mem fmt shape.value))

(* the receiver's whole arena after one conversion into fresh memory:
   the struct is its first block, so this is every byte the plan wrote *)
let native_image abi run =
  let mem = Memory.create abi in
  let addr = run mem in
  Memory.read_bytes mem addr (Memory.allocated_bytes mem)

let test_plans_agree_on_every_pair () =
  List.iter
    (fun (shape : Shapes.t) ->
      List.iter
        (fun ((sender : Abi.t), (receiver : Abi.t)) ->
          let sfmt, msg = send shape sender in
          let wire = wire_of sfmt in
          let native = Shapes.register receiver shape in
          let payload =
            Bytes.sub msg Wire.header_length (Bytes.length msg - Wire.header_length)
          in
          let image run = native_image receiver run in
          let compiled =
            image (Convert.run (Convert.compile ~wire ~native) payload)
          in
          let what =
            Printf.sprintf "%s %s -> %s" shape.name sender.name receiver.name
          in
          check bool (what ^ ": unoptimized = compiled") true
            (Bytes.equal compiled
               (image
                  (Convert.run (Convert.compile_unoptimized ~wire ~native) payload)));
          check bool (what ^ ": interpreted = compiled") true
            (Bytes.equal compiled (image (Convert.interpret ~wire ~native payload))))
        pairs)
    shapes

(* (shape, sender ABI, format id, payload length, MD5 of the payload):
   a message is the 4-byte big-endian format id, then the NDR payload.
   The payloads were captured behind the first layout's 24-byte header
   (bytes 24.. of each message), before the encoder was rewritten to
   size first and emit in place and before the header shrank to the
   id: NDR images must stay byte-identical. *)
let golden_messages =
  [ ("paper-a", "x86-32", 1, 72, "d961ae77568f3cd7258bad5be1bbc8aa")
  ; ("paper-a", "x86-64", 1, 104, "48eaa579f1e062c33aa33ff53ce617b9")
  ; ("paper-a", "sparc-32", 1, 72, "90c42680d0be9e6b8e9eda477c26f578")
  ; ("paper-a", "sparc-64", 1, 104, "dc2976df4b149ce2688dd6156b7ce9d6")
  ; ("paper-a", "arm-32", 1, 72, "d961ae77568f3cd7258bad5be1bbc8aa")
  ; ("paper-a", "power-64", 1, 104, "dc2976df4b149ce2688dd6156b7ce9d6")
  ; ("paper-a", "alpha-64", 1, 104, "48eaa579f1e062c33aa33ff53ce617b9")
  ; ("paper-a", "m68k-32", 1, 72, "90c42680d0be9e6b8e9eda477c26f578")
  ; ("paper-a", "mips-32", 1, 72, "90c42680d0be9e6b8e9eda477c26f578")
  ; ("science-16k", "x86-32", 1, 16388, "5f4a86b3edba6f184680306f23d75055")
  ; ("science-16k", "x86-64", 1, 16392, "3254cde342d4046d5a666a981d493dcf")
  ; ("science-16k", "sparc-32", 1, 16392, "c90ed90c850f9f8aeedd00e012ebb1de")
  ; ("science-16k", "sparc-64", 1, 16392, "c90ed90c850f9f8aeedd00e012ebb1de")
  ; ("science-16k", "arm-32", 1, 16392, "3254cde342d4046d5a666a981d493dcf")
  ; ("science-16k", "power-64", 1, 16392, "c90ed90c850f9f8aeedd00e012ebb1de")
  ; ("science-16k", "alpha-64", 1, 16392, "3254cde342d4046d5a666a981d493dcf")
  ; ("science-16k", "m68k-32", 1, 16388, "c9d2558648852b17a98f385453428312")
  ; ("science-16k", "mips-32", 1, 16392, "c90ed90c850f9f8aeedd00e012ebb1de")
  ; ("durable-cd", "x86-32", 2, 328, "f64a46d06beb265b9f2fcac91a7b3bfa")
  ; ("durable-cd", "x86-64", 2, 520, "7856a828547990c91797352a072e02a8")
  ; ("durable-cd", "sparc-32", 2, 340, "56aabb5942b468689293effe0dd67299")
  ; ("durable-cd", "sparc-64", 2, 520, "97cbc72f6a5164009156384eaf138dd6")
  ; ("durable-cd", "arm-32", 2, 340, "ba89476ceb26a2000e8584068eca8bdf")
  ; ("durable-cd", "power-64", 2, 520, "97cbc72f6a5164009156384eaf138dd6")
  ; ("durable-cd", "alpha-64", 2, 520, "7856a828547990c91797352a072e02a8")
  ; ("durable-cd", "m68k-32", 2, 328, "e7e425f39935718c5a6a6165680cde46")
  ; ("durable-cd", "mips-32", 2, 340, "56aabb5942b468689293effe0dd67299")
  ; ("secure-a1k", "x86-32", 1, 1088, "205a550ea50b599f2f0e90a65c408f42")
  ; ("secure-a1k", "x86-64", 1, 1120, "91ae9a9de1572bd4a1941125537a99aa")
  ; ("secure-a1k", "sparc-32", 1, 1088, "3d225b49d64c217f599710850b3b3542")
  ; ("secure-a1k", "sparc-64", 1, 1120, "57c0f1ccf49dc11ec870db0257d78be4")
  ; ("secure-a1k", "arm-32", 1, 1088, "205a550ea50b599f2f0e90a65c408f42")
  ; ("secure-a1k", "power-64", 1, 1120, "57c0f1ccf49dc11ec870db0257d78be4")
  ; ("secure-a1k", "alpha-64", 1, 1120, "91ae9a9de1572bd4a1941125537a99aa")
  ; ("secure-a1k", "m68k-32", 1, 1088, "3d225b49d64c217f599710850b3b3542")
  ; ("secure-a1k", "mips-32", 1, 1088, "3d225b49d64c217f599710850b3b3542")
  ; ("strvar", "x86-32", 1, 95, "0ca10c8d22d278ec00ccebab39f4efd1")
  ; ("strvar", "x86-64", 1, 127, "afef32d6ec6c37d6e44084703b87dc34")
  ; ("strvar", "sparc-32", 1, 95, "c3ef1b43da00707445d84cf2206d1e1a")
  ; ("strvar", "sparc-64", 1, 127, "8c3d50216758f4d72fdec0f037a2bbd5")
  ; ("strvar", "arm-32", 1, 95, "0ca10c8d22d278ec00ccebab39f4efd1")
  ; ("strvar", "power-64", 1, 127, "8c3d50216758f4d72fdec0f037a2bbd5")
  ; ("strvar", "alpha-64", 1, 127, "afef32d6ec6c37d6e44084703b87dc34")
  ; ("strvar", "m68k-32", 1, 93, "c92e4090a36485b96196c03fb36279b9")
  ; ("strvar", "mips-32", 1, 95, "c3ef1b43da00707445d84cf2206d1e1a") ]

let test_messages_match_golden () =
  List.iter
    (fun (name, abi_name, id, len, md5) ->
      let shape = List.find (fun (s : Shapes.t) -> s.name = name) shapes in
      let abi = Option.get (Abi.find_by_name abi_name) in
      let _, msg = send shape abi in
      let what = Printf.sprintf "%s from %s" name abi_name in
      check int (what ^ ": length") (Wire.header_length + len) (Bytes.length msg);
      check Alcotest.string (what ^ ": header is the format id")
        (Omf_testkit.Wire_v1.u32 id) (Bytes.sub_string msg 0 Wire.header_length);
      check Alcotest.string (what ^ ": payload MD5") md5
        (Digest.to_hex (Digest.bytes (Bytes.sub msg Wire.header_length len))))
    golden_messages

(* Damaged input, for every decoder of bytes another party wrote, must
   be refused with the one decode error, never anything else: every fast
   path keeps its bounds checks. Each row is a decoder: the genuine
   bytes a sender of the shape makes, and the receiver's decode of them.
   [lo] bytes (the NDR header, the format id) are never edited; half
   the edits land below [hot], where the NDR base image keeps its
   pointer slots and counts; [cut] mends what a cut leaves stale, so
   the cut reaches the decoder behind it (a message's payload runs to
   its end, so a cut message needs no mending). *)
type row = {
  row : string;
  make : Shapes.t -> Abi.t -> Abi.t -> bytes * (bytes -> unit);
  lo : bytes -> int;
  hot : Shapes.t -> Abi.t -> bytes -> int;
  cut : bytes -> unit;
}

module Decode = Omf_util.Decode
module Xdr = Omf_xdr.Xdr
module Xmlwire = Omf_xmlwire.Xmlwire
module Compress = Omf_compress.Compress
module Macframe = Omf_transport.Macframe
module Journal = Omf_journal.Journal

let whole _ _ b = Bytes.length b

let receiver_of shape abi = Receiver.create (Shapes.registry abi shape) (Memory.create abi)

let with_file contents f =
  let path = Filename.temp_file "omf-decoders" ".jrnl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc contents);
  f path

let journal_of shape sender =
  let fmt = Shapes.register sender shape in
  let mem = Memory.create sender in
  let path = Filename.temp_file "omf-decoders" ".jrnl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let w, close = Journal.Writer.to_file path in
  Journal.Writer.append w mem fmt (Native.store mem fmt shape.Shapes.value);
  close ();
  Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)

let decoders =
  [ { row = "descriptor"
    ; make =
        (fun shape sender receiver ->
          let sfmt, _ = send shape sender in
          ( Bytes.of_string (Format_codec.encode sfmt)
          , fun b -> ignore (Receiver.learn (receiver_of shape receiver) (Bytes.to_string b)) ))
    ; lo = (fun _ -> 0); hot = whole; cut = ignore }
  ; { row = "wire message"
    ; make =
        (fun shape sender receiver ->
          let sfmt, msg = send shape sender in
          let r = receiver_of shape receiver in
          ignore (Receiver.learn r (Format_codec.encode sfmt));
          (msg, fun b -> ignore (Receiver.receive r b)))
    ; lo = (fun _ -> Wire.header_length)
    ; hot =
        (fun shape sender _ ->
          Wire.header_length
          + (Shapes.register sender shape).Format.layout.Omf_machine.Layout.size)
    ; cut = ignore }
  ; { row = "xdr"
    ; make =
        (fun shape sender receiver ->
          let sfmt = Shapes.register sender shape in
          let rfmt = Shapes.register receiver shape in
          ( Xdr.encode_value sender sfmt shape.value
          , fun b -> ignore (Xdr.decode_value receiver rfmt b) ))
    ; lo = (fun _ -> 0); hot = whole; cut = ignore }
  ; { row = "xml text"
    ; make =
        (fun shape sender receiver ->
          let sfmt = Shapes.register sender shape in
          let rfmt = Shapes.register receiver shape in
          ( Bytes.of_string (Xmlwire.encode_value sfmt shape.value)
          , fun b -> ignore (Xmlwire.decode_value rfmt (Bytes.to_string b)) ))
    ; lo = (fun _ -> 0); hot = whole; cut = ignore }
  ; { row = "lz block"
    ; make =
        (fun shape sender _ ->
          let _, msg = send shape sender in
          (Compress.compress msg, fun b -> ignore (Compress.decompress b)))
    ; lo = (fun _ -> 0); hot = whole; cut = ignore }
  ; { row = "sealed frame"
    ; make =
        (fun shape sender _ ->
          let _, msg = send shape sender in
          ( Macframe.seal_next (Macframe.state ~key:"k") msg
          , fun b -> ignore (Macframe.open_next (Macframe.state ~key:"k") b) ))
    ; lo = (fun _ -> 0); hot = whole; cut = ignore }
  ; { row = "journal file"
    ; make =
        (fun shape sender receiver ->
          ( journal_of shape sender
          , fun b ->
              with_file b @@ fun path ->
              let reader, close =
                Journal.Reader.of_file path (Shapes.registry receiver shape)
                  (Memory.create receiver)
              in
              Fun.protect ~finally:close @@ fun () ->
              (* a damaged name or field type can make a sound record
                 of another schema: not a decode error *)
              try ignore (Journal.Reader.fold reader (fun n _ -> n + 1) 0)
              with Unknown_format _ | Convert.Field_mismatch _ -> () ))
    ; lo = (fun _ -> 0); hot = whole; cut = ignore } ]

(* [r]'s input damaged by [edits] and [cut] decodes or is refused with
   the one decode error *)
let refused (shape, sender, receiver, edits, cut) r =
  let input, decode = r.make shape sender receiver in
  let lo = r.lo input and len = Bytes.length input in
  let hot = r.hot shape sender input in
  List.iter
    (fun (p, c) ->
      let off = if p land 1 = 0 then p mod (hot - lo) else p mod (len - lo) in
      Bytes.set input (lo + off) c)
    edits;
  let input =
    match cut with
    | None -> input
    | Some c ->
      let m = Bytes.sub input 0 (lo + (c mod (len - lo + 1))) in
      r.cut m;
      m
  in
  match decode input with
  | () | (exception Decode.Error _) -> true
  | exception e -> QCheck.Test.fail_reportf "%s: %s" r.row (Printexc.to_string e)

(* every case damages each decoder row's input alike *)
let prop_damaged_messages_are_refused =
  let gen =
    QCheck.Gen.(
      let* shape = oneofl shapes in
      let* sender = oneofl Abi.all in
      let* receiver = oneofl Abi.all in
      let* edits = list_size (int_range 1 6) (pair (int_bound 1_000_000) char) in
      let* cut = opt (int_bound 1_000_000) in
      return (shape, sender, receiver, edits, cut))
  in
  QCheck.Test.make ~name:"damaged messages are refused" ~count:2000
    (QCheck.make
       ~print:(fun ((s : Shapes.t), (a : Abi.t), (b : Abi.t), edits, cut) ->
         Printf.sprintf "%s %s->%s edits=%s cut=%s" s.name a.name b.name
           (String.concat ","
              (List.map (fun (p, c) -> Printf.sprintf "%d:%02x" p (Char.code c)) edits))
           (match cut with Some c -> string_of_int c | None -> "-"))
       gen)
    (fun case -> List.for_all (refused case) decoders)

let () =
  Alcotest.run "convert-plans"
    [ ( "coalescing",
        [ Alcotest.test_case "numeric struct = one blit" `Quick
            test_numeric_struct_one_blit
        ; Alcotest.test_case "layout-equal machines = one blit" `Quick
            test_same_layout_different_machines_one_blit
        ; Alcotest.test_case "byte swap blocks merging" `Quick
            test_byte_swap_prevents_coalescing
        ; Alcotest.test_case "chars merge across orders" `Quick
            test_chars_coalesce_even_across_orders
        ; Alcotest.test_case "strings break blits" `Quick test_strings_break_blits
        ; Alcotest.test_case "resize blocks merging" `Quick
            test_resize_prevents_coalescing ] )
    ; ( "arrays",
        [ Alcotest.test_case "fixed array folds to blit" `Quick
            test_fixed_array_folds_into_blit
        ; Alcotest.test_case "unoptimized keeps per-field ops" `Quick
            test_unoptimized_keeps_per_field_ops
        ; Alcotest.test_case "var array op structure" `Quick
            test_var_array_stays_one_op
        ; Alcotest.test_case "swapped array is one op" `Quick
            test_swapped_array_is_one_op ] )
    ; ( "conversions",
        [ Alcotest.test_case "fixed arrays shrink and grow" `Quick
            test_fixed_array_shrinks_and_grows
        ; Alcotest.test_case "signed widening sign-extends" `Quick
            test_signedness_of_widening_follows_wire
        ; Alcotest.test_case "unsigned widening zero-extends" `Quick
            test_unsigned_widening_zero_extends
        ; Alcotest.test_case "narrowing truncates like C" `Quick
            test_narrowing_truncates_like_c
        ; Alcotest.test_case "float width conversion" `Quick
            test_float_width_conversion
        ; Alcotest.test_case "m68k repacking" `Quick test_m68k_repacking
        ; Alcotest.test_case "renamed control" `Quick test_renamed_control ] )
    ; ( "shapes",
        [ Alcotest.test_case "plans agree on every ABI pair" `Quick
            test_plans_agree_on_every_pair
        ; Alcotest.test_case "messages match golden" `Quick
            test_messages_match_golden
        ; QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
            prop_damaged_messages_are_refused ] ) ]
