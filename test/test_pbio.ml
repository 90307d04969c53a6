(** Tests for the PBIO substrate: format registration, native binding,
    NDR encoding, receiver-side conversion (compiled and interpreted),
    format negotiation descriptors and framing. *)

open Omf_machine
open Omf_pbio.Pbio
module Fx = Omf_fixtures.Paper_structs
module Decode = Omf_util.Decode

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let str = Alcotest.string

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

(* [transfer sender_abi receiver_abi fmt_decls name v] registers the
   declarations on both sides, binds [v] on the sender, ships it through
   NDR framing + format negotiation, and returns (sent_normalised,
   received) values. *)
let transfer sender_abi receiver_abi (decls : Ftype.t list) name v =
  let sreg = Registry.create sender_abi in
  let rreg = Registry.create receiver_abi in
  List.iter (fun d -> ignore (Registry.register sreg d)) decls;
  List.iter (fun d -> ignore (Registry.register rreg d)) decls;
  let sfmt = Option.get (Registry.find sreg name) in
  let smem = Memory.create sender_abi in
  let addr = Native.store smem sfmt v in
  let sent = Native.load smem sfmt addr in
  let msg = message smem sfmt addr in
  let rmem = Memory.create receiver_abi in
  let receiver = Receiver.create rreg rmem in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  let _, received = Receiver.receive_value receiver msg in
  (sent, received)

(* [convert_both smem sfmt rreg v] ships [v] as an NDR message and
   converts it for [rreg]'s format of the same name twice: by the
   interpreter ([Convert.interpret], the baseline, on a copy of the
   payload) and by the compiled plan, in place in the message
   ([Convert.run_sub], the receiver's path). Returns (compiled,
   interpreted) as values. *)
let convert_both smem sfmt rreg v =
  let msg = message smem sfmt (Native.store smem sfmt v) in
  let wire = Format_codec.decode (Format_codec.encode sfmt) in
  let native = Option.get (Registry.find rreg sfmt.Format.name) in
  let mem = Memory.create (Registry.abi rreg) in
  let off = Wire.header_length in
  let len = Bytes.length msg - off in
  let interpreted =
    Native.load mem native
      (Convert.interpret ~wire ~native (Bytes.sub msg off len) mem)
  in
  let compiled =
    Native.load mem native
      (Convert.run_sub (Convert.compile ~wire ~native) msg ~off ~len mem)
  in
  (compiled, interpreted)

(* ------------------------------------------------------------------ *)
(* Ftype declarations                                                   *)
(* ------------------------------------------------------------------ *)

let test_type_strings () =
  let roundtrip s = Ftype.to_type_string (Ftype.of_type_string s) in
  List.iter
    (fun s -> check str "type string round-trip" s (roundtrip s))
    [ "integer"; "unsigned long"; "float"; "double"; "char"; "string"
    ; "integer[5]"; "unsigned long[eta_count]"; "ASDOffEvent" ];
  check bool "integer maps to C int" true
    (match Ftype.of_type_string "integer" with
    | Ftype.Int_t Abi.Int, Ftype.Scalar -> true
    | _ -> false);
  check bool "bracket form parses to Fixed" true
    (match Ftype.of_type_string "integer[5]" with
    | Ftype.Int_t Abi.Int, Ftype.Fixed 5 -> true
    | _ -> false);
  check bool "name form parses to Var" true
    (match Ftype.of_type_string "integer[eta_count]" with
    | Ftype.Int_t Abi.Int, Ftype.Var "eta_count" -> true
    | _ -> false)

let test_bad_type_strings () =
  List.iter
    (fun s ->
      try
        ignore (Ftype.of_type_string s);
        Alcotest.failf "expected Bad_type_string for %S" s
      with Ftype.Bad_type_string _ -> ())
    [ ""; "integer[]"; "integer[0]"; "integer[-3]" ]

(* ------------------------------------------------------------------ *)
(* Registration: Table 1 structure sizes                                *)
(* ------------------------------------------------------------------ *)

let test_paper_struct_sizes_sparc32 () =
  (* The paper's testbed: 32-bit, big-endian, 8-byte-aligned doubles. *)
  let reg = Registry.create Abi.sparc_32 in
  let a, b, _, d = Fx.register_all reg in
  check int "structure A is 32 bytes (Table 1)" 32 (Format.struct_size a);
  check int "structure B is 52 bytes (Table 1)" 52 (Format.struct_size b);
  (* Table 1 reports 180 for C/D: that is the unpadded end offset
     (3 * 52 + 2 * 8 + 8 bytes of interior padding). sizeof rounds the
     total up to the 8-byte struct alignment, giving 184. *)
  check int "structure D spans 180 bytes (Table 1)" 180
    d.Format.layout.Layout.end_offset;
  check int "sizeof(structure D) = 184 (trailing padding)" 184
    (Format.struct_size d)

let test_paper_struct_sizes_x86_64 () =
  let reg = Registry.create Abi.x86_64 in
  let a, b, _, _ = Fx.register_all reg in
  (* 5 pointers + int + 2 longs, with LP64 padding *)
  check int "structure A under LP64" 64 (Format.struct_size a);
  check bool "structure B grows under LP64" true (Format.struct_size b > 52)

let test_registration_errors () =
  let reg = Registry.create Abi.x86_64 in
  (try
     ignore (Registry.register reg (Ftype.declare "bad" [ ("x", "NoSuchType") ]));
     Alcotest.fail "expected Registration_error (unknown nested)"
   with Format.Registration_error _ -> ());
  (try
     ignore
       (Registry.register reg
          (Ftype.declare "bad2" [ ("a", "integer[missing]"); ("b", "integer") ]));
     Alcotest.fail "expected Registration_error (missing control)"
   with Format.Registration_error _ -> ());
  (try
     ignore
       (Registry.register reg
          (Ftype.declare "bad3" [ ("a", "integer[c]"); ("c", "string") ]));
     Alcotest.fail "expected Registration_error (non-integer control)"
   with Format.Registration_error _ -> ());
  try
    ignore (Registry.register reg { Ftype.name = "empty"; fields = [] });
    Alcotest.fail "expected Registration_error (no fields)"
  with Format.Registration_error _ -> ()

let test_nested_must_exist_first () =
  let reg = Registry.create Abi.x86_64 in
  try
    ignore (Registry.register reg Fx.decl_d);
    Alcotest.fail "expected Registration_error (catalog order)"
  with Format.Registration_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Native binding                                                       *)
(* ------------------------------------------------------------------ *)

let normalize abi decls name v =
  let reg = Registry.create abi in
  List.iter (fun d -> ignore (Registry.register reg d)) decls;
  let fmt = Option.get (Registry.find reg name) in
  let mem = Memory.create abi in
  Native.load mem fmt (Native.store mem fmt v)

let test_native_roundtrip_all_abis () =
  List.iter
    (fun abi ->
      let v1 = normalize abi [ Fx.decl_a ] "ASDOffEvent" Fx.value_a in
      let v2 = normalize abi [ Fx.decl_a ] "ASDOffEvent" v1 in
      check value_testable (abi.Abi.name ^ " A load/store fixpoint") v1 v2;
      let b1 = normalize abi [ Fx.decl_b ] "ASDOffEventB" Fx.value_b in
      let b2 = normalize abi [ Fx.decl_b ] "ASDOffEventB" b1 in
      check value_testable (abi.Abi.name ^ " B load/store fixpoint") b1 b2;
      let d1 =
        normalize abi [ Fx.decl_c; Fx.decl_d ] "threeASDOffs" Fx.value_d
      in
      let d2 = normalize abi [ Fx.decl_c; Fx.decl_d ] "threeASDOffs" d1 in
      check value_testable (abi.Abi.name ^ " D load/store fixpoint") d1 d2)
    Abi.all

let test_control_field_autofill () =
  let v = normalize Abi.x86_64 [ Fx.decl_b ] "ASDOffEventB" Fx.value_b in
  check value_testable "eta_count synthesised from array length"
    (Value.Int 3L)
    (Value.field_exn v "eta_count")

let test_control_field_disagreement_rejected () =
  let bad = Value.set_field Fx.value_b "eta_count" (Value.Int 7L) in
  (try
     ignore (normalize Abi.x86_64 [ Fx.decl_b ] "ASDOffEventB" bad);
     Alcotest.fail "expected Bind_error"
   with Native.Bind_error _ -> ());
  (* a shared control agrees with every array it counts, not only the
     first: each case names the array that disagrees *)
  let shared =
    Ftype.declare "shared"
      [ ("a", "integer[n]"); ("b", "integer[n]"); ("n", "integer") ]
  in
  let fmt = Registry.register (Registry.create Abi.x86_64) shared in
  let ints l = Value.Array (Array.of_list (List.map (fun i -> Value.Int i) l)) in
  let rejects what v =
    match normalize Abi.x86_64 [ shared ] "shared" v with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Native.Bind_error m ->
      check bool (what ^ ": names b") true
        (Omf_testkit.Strings.contains m "\"b\"")
  in
  List.iter
    (fun (what, n, a, b) ->
      let by_name = [ ("a", ints a); ("b", ints b) ] in
      rejects ("by name, " ^ what)
        (Value.Record
           (match n with
           | None -> by_name
           | Some n -> ("n", Value.Int n) :: by_name));
      let n = match n with Some n -> n | None -> Int64.of_int (List.length a) in
      rejects ("positionally, " ^ what)
        (Value.Struct
           { names = fmt.Format.names
           ; values = [| ints a; ints b; Value.Int n |] }))
    [ ("n omitted, b longer", None, [ 1L; 2L ], [ 7L; 8L; 9L ])
    ; ("n omitted, b shorter", None, [ 1L; 2L; 3L ], [ 7L ])
    ; ("n = 3, b empty", Some 3L, [ 1L; 2L; 3L ], []) ]

(* every float array loads as one [Value.Floats], whichever way it was
   bound; [Floats] binds, fills and checks control fields like an [Array] *)
let test_float_arrays_load_unboxed () =
  let decl =
    Ftype.declare "fl"
      [ ("n", "integer"); ("d", "double[n]"); ("f", "float[3]"); ("i", "integer[2]") ]
  in
  let floats l = Value.Floats (Float.Array.of_list l) in
  let boxed l = Value.Array (Array.of_list (List.map (fun x -> Value.Float x) l)) in
  let ints = Value.Array [| Value.Int 1L; Value.Int 2L |] in
  let rec_ d f = Value.Record [ ("d", d); ("f", f); ("i", ints) ] in
  List.iter
    (fun abi ->
      List.iter
        (fun (what, v) ->
          let back = normalize abi [ decl ] "fl" v in
          let is_floats name =
            match Value.field_exn back name with Value.Floats _ -> true | _ -> false
          in
          check bool (what ^ ": double[n] loads as Floats") true (is_floats "d");
          check bool (what ^ ": float[3] loads as Floats") true (is_floats "f");
          check bool (what ^ ": integer[2] stays boxed") false (is_floats "i");
          check value_testable (what ^ ": values survive")
            (Value.Record
               [ ("n", Value.Int 2L); ("d", boxed [ 1.5; -0.0 ])
               ; ("f", boxed [ 0.25; 2.0; -8.0 ]); ("i", ints) ])
            back)
        [ ("floats", rec_ (floats [ 1.5; -0.0 ]) (floats [ 0.25; 2.0; -8.0 ]))
        ; ("boxed", rec_ (boxed [ 1.5; -0.0 ]) (boxed [ 0.25; 2.0; -8.0 ])) ];
      let empty =
        normalize abi [ decl ] "fl" (rec_ (floats []) (floats [ 0.; 0.; 0. ]))
      in
      check value_testable "empty dynamic Floats" (Value.Int 0L)
        (Value.field_exn empty "n");
      check bool "empty double[n] loads as Floats" true
        (match Value.field_exn empty "d" with
        | Value.Floats a -> Float.Array.length a = 0
        | _ -> false))
    [ Abi.x86_64; Abi.sparc_32 ];
  let rejected what v =
    match normalize Abi.x86_64 [ decl ] "fl" v with
    | _ -> Alcotest.failf "%s: expected Bind_error" what
    | exception Native.Bind_error _ -> ()
  in
  rejected "control disagrees with Floats length"
    (Value.set_field (rec_ (floats [ 1.0 ]) (floats [ 0.; 0.; 0. ])) "n" (Value.Int 2L));
  rejected "float[3] given 2 Floats" (rec_ (floats [ 1.0 ]) (floats [ 0.; 0. ]));
  rejected "Floats for an integer array"
    (Value.set_field
       (rec_ (floats [ 1.0 ]) (floats [ 0.; 0.; 0. ]))
       "i" (floats [ 1.; 2. ]))

let test_missing_field_rejected () =
  let v = Value.Record [ ("cntrID", Value.String "x") ] in
  try
    ignore (normalize Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" v);
    Alcotest.fail "expected Bind_error"
  with Native.Bind_error _ -> ()

let test_unknown_field_rejected () =
  let rejected what v =
    match normalize Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" v with
    | _ -> Alcotest.failf "%s: expected Bind_error" what
    | exception Native.Bind_error _ -> ()
  in
  rejected "record"
    (match Fx.value_a with
    | Value.Record fields -> Value.Record (("bogus", Value.Int 1L) :: fields)
    | _ -> assert false);
  (* a decoded value under other names binds by name, and is refused *)
  let loaded = normalize Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" Fx.value_a in
  rejected "struct with a field appended"
    (Value.set_field loaded "bogus" (Value.Int 1L));
  match loaded with
  | Value.Struct { names; values } ->
    let names = Array.copy names in
    names.(0) <- "bogus";
    rejected "struct with a field renamed" (Value.Struct { names; values })
  | v -> Alcotest.failf "Native.load returned %s" (Value.to_string v)

let test_char_array_semantics () =
  let d =
    Ftype.declare "tag" [ ("name", "char[8]"); ("n", "integer") ]
  in
  let v = Value.Record [ ("name", Value.String "gate"); ("n", Value.Int 4L) ] in
  let loaded = normalize Abi.x86_64 [ d ] "tag" v in
  check value_testable "char[N] binds a short string and loads it back"
    (Value.String "gate")
    (Value.field_exn loaded "name")

let test_empty_dynamic_array () =
  let v =
    Value.set_field Fx.value_b "eta" (Value.Array [||])
    |> fun v -> Value.set_field v "eta_count" (Value.Int 0L)
  in
  let loaded = normalize Abi.sparc_32 [ Fx.decl_b ] "ASDOffEventB" v in
  check value_testable "empty dynamic array loads as empty"
    (Value.Array [||])
    (Value.field_exn loaded "eta")

(* ------------------------------------------------------------------ *)
(* NDR encoding: Table 1 encoded sizes                                  *)
(* ------------------------------------------------------------------ *)

let test_encoded_sizes_sparc32 () =
  let reg = Registry.create Abi.sparc_32 in
  let a, b, _, _ = Fx.register_all reg in
  let pa = Encode.payload_of_value Abi.sparc_32 a Fx.value_a in
  check int "structure A encodes to 72 bytes (Table 1)" 72 (Bytes.length pa);
  let pb = Encode.payload_of_value Abi.sparc_32 b Fx.value_b in
  check int "structure B encodes to 104 bytes (Table 1)" 104 (Bytes.length pb)

let test_encode_starts_with_native_image () =
  (* NDR: the payload begins with the sender's struct bytes verbatim. *)
  let abi = Abi.x86_64 in
  let reg = Registry.create abi in
  let fmt =
    Registry.register reg (Ftype.declare "nums" [ ("a", "integer"); ("b", "double") ])
  in
  let mem = Memory.create abi in
  let addr =
    Native.store mem fmt
      (Value.Record [ ("a", Value.Int 77L); ("b", Value.Float 1.5) ])
  in
  let payload = Encode.payload mem fmt addr in
  check bool "payload = native image for pointer-free structs" true
    (Bytes.equal payload (Memory.read_bytes mem addr (Format.struct_size fmt)))

let test_encode_rejects_wrong_abi_memory () =
  let reg = Registry.create Abi.sparc_32 in
  let a, _, _, _ = Fx.register_all reg in
  let mem = Memory.create Abi.x86_64 in
  try
    ignore (Encode.payload mem a 0);
    Alcotest.fail "expected Encode_error"
  with Encode.Encode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Transfers                                                            *)
(* ------------------------------------------------------------------ *)

let test_homogeneous_transfer () =
  let sent, received =
    transfer Abi.x86_64 Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" Fx.value_a
  in
  check value_testable "homogeneous A" sent received

let test_cross_abi_matrix () =
  List.iter
    (fun sender ->
      List.iter
        (fun receiver ->
          let label w =
            Printf.sprintf "%s -> %s %s" sender.Abi.name receiver.Abi.name w
          in
          let sent, received =
            transfer sender receiver [ Fx.decl_a ] "ASDOffEvent" Fx.value_a
          in
          check value_testable (label "A") sent received;
          let sent, received =
            transfer sender receiver [ Fx.decl_b ] "ASDOffEventB" Fx.value_b
          in
          check value_testable (label "B") sent received;
          let sent, received =
            transfer sender receiver [ Fx.decl_c; Fx.decl_d ] "threeASDOffs"
              Fx.value_d
          in
          check value_testable (label "D") sent received)
        Abi.all)
    Abi.all

let test_interpreted_matches_compiled () =
  let sreg = Registry.create Abi.sparc_32 in
  List.iter (fun d -> ignore (Registry.register sreg d)) [ Fx.decl_c; Fx.decl_d ];
  let sfmt = Option.get (Registry.find sreg "threeASDOffs") in
  List.iter
    (fun receiver_abi ->
      let rreg = Registry.create receiver_abi in
      List.iter
        (fun d -> ignore (Registry.register rreg d))
        [ Fx.decl_c; Fx.decl_d ];
      let compiled, interpreted =
        convert_both (Memory.create Abi.sparc_32) sfmt rreg Fx.value_d
      in
      check value_testable
        ("interpreted = compiled on " ^ receiver_abi.Abi.name)
        compiled interpreted)
    [ Abi.x86_64; Abi.sparc_32; Abi.x86_32 ]

let test_homogeneous_plan_collapses () =
  (* An all-numeric struct between identical ABIs must compile to a single
     blit: the "directly from the medium into memory" fast path. *)
  let d =
    Ftype.declare "nums"
      [ ("a", "integer"); ("b", "integer"); ("c", "double"); ("d", "short")
      ; ("e", "unsigned long") ]
  in
  let reg1 = Registry.create Abi.x86_64 and reg2 = Registry.create Abi.x86_64 in
  let f1 = Registry.register reg1 d and f2 = Registry.register reg2 d in
  let plan = Convert.compile ~wire:f1 ~native:f2 in
  check int "single blit" 1 (Convert.op_count plan);
  (* and byte-swapped peers must not collapse *)
  let reg3 = Registry.create Abi.power_64 in
  let f3 = Registry.register reg3 d in
  let plan2 = Convert.compile ~wire:f3 ~native:f2 in
  check bool "byte-swapped plan needs per-field ops" true
    (Convert.op_count plan2 > 1)

let test_field_mismatch_detected () =
  let d1 = Ftype.declare "m" [ ("x", "integer") ] in
  let d2 = Ftype.declare "m" [ ("x", "string") ] in
  let reg1 = Registry.create Abi.x86_64 and reg2 = Registry.create Abi.x86_64 in
  let f1 = Registry.register reg1 d1 and f2 = Registry.register reg2 d2 in
  try
    ignore (Convert.compile ~wire:f1 ~native:f2);
    Alcotest.fail "expected Field_mismatch"
  with Convert.Field_mismatch _ -> ()

let decl_tracklist =
  (* dynamic array of strings: char** with a count *)
  Ftype.declare "tracklist"
    [ ("flight", "string"); ("fix_count", "integer")
    ; ("fixes", "string[fix_count]") ]

let value_tracklist =
  Value.Record
    [ ("flight", Value.String "DAL1771")
    ; ("fixes",
       Value.Array
         [| Value.String "ATL"; Value.String ""; Value.String "JAX-INTL" |]) ]

let test_dynamic_string_arrays () =
  (* native round-trip on every ABI *)
  List.iter
    (fun abi ->
      let v1 = normalize abi [ decl_tracklist ] "tracklist" value_tracklist in
      check value_testable
        (abi.Abi.name ^ " fixes survive (incl. empty string)")
        (Value.Array
           [| Value.String "ATL"; Value.String ""; Value.String "JAX-INTL" |])
        (Value.field_exn v1 "fixes"))
    Abi.all;
  (* cross-ABI NDR transfer, both directions *)
  List.iter
    (fun (s, r) ->
      let sent, received =
        transfer s r [ decl_tracklist ] "tracklist" value_tracklist
      in
      check value_testable
        (Printf.sprintf "char** %s -> %s" s.Abi.name r.Abi.name)
        sent received)
    [ (Abi.x86_64, Abi.sparc_32); (Abi.sparc_32, Abi.x86_64)
    ; (Abi.x86_32, Abi.power_64) ];
  (* empty array *)
  let empty =
    Value.Record
      [ ("flight", Value.String "DAL1"); ("fixes", Value.Array [||]) ]
  in
  let sent, received =
    transfer Abi.x86_64 Abi.sparc_32 [ decl_tracklist ] "tracklist" empty
  in
  check value_testable "empty char** array" sent received

(* ------------------------------------------------------------------ *)
(* Format evolution                                                     *)
(* ------------------------------------------------------------------ *)

let decl_v1 =
  Ftype.declare "position" [ ("lat", "double"); ("lon", "double") ]

let decl_v2 =
  Ftype.declare "position"
    [ ("lat", "double"); ("lon", "double"); ("alt", "double")
    ; ("callsign", "string") ]

let evolve_transfer sender_decl receiver_decl v =
  let sreg = Registry.create Abi.x86_64 in
  let rreg = Registry.create Abi.sparc_32 in
  let sfmt = Registry.register sreg sender_decl in
  ignore (Registry.register rreg receiver_decl);
  let smem = Memory.create Abi.x86_64 in
  let addr = Native.store smem sfmt v in
  let msg = message smem sfmt addr in
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  snd (Receiver.receive_value receiver msg)

let test_old_receiver_new_sender () =
  (* sender adds fields; old receiver ignores them (PBIO's restricted
     evolution) *)
  let v =
    Value.Record
      [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43))
      ; ("alt", Value.Float 10000.0); ("callsign", Value.String "DAL1771") ]
  in
  let received = evolve_transfer decl_v2 decl_v1 v in
  check value_testable "extra wire fields dropped"
    (Value.Record [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43)) ])
    received

let test_new_receiver_old_sender () =
  (* receiver's new fields arrive zeroed / empty *)
  let v =
    Value.Record [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43)) ]
  in
  let received = evolve_transfer decl_v1 decl_v2 v in
  check value_testable "missing wire fields default"
    (Value.Record
       [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43))
       ; ("alt", Value.Float 0.0); ("callsign", Value.String "") ])
    received

let test_receiver_stats () =
  let sreg = Registry.create Abi.x86_64 in
  let rreg = Registry.create Abi.sparc_32 in
  let sfmt = Registry.register sreg Fx.decl_a in
  ignore (Registry.register rreg Fx.decl_a);
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  let smem = Memory.create Abi.x86_64 in
  let addr = Native.store smem sfmt Fx.value_a in
  for _ = 1 to 5 do
    ignore (Receiver.receive receiver (message smem sfmt addr))
  done;
  let s = Receiver.stats receiver in
  check int "messages counted" 5 s.Receiver.messages;
  check bool "bytes counted" true (s.Receiver.bytes > 5 * 32);
  check int "one format learned" 1 s.Receiver.formats_learned;
  check int "one plan compiled (cache works)" 1 s.Receiver.plans_compiled

(* [message] lends the memory's one output buffer: each message decodes
   to its own value when read before the next [message] on that memory,
   whatever the lengths do; a repeated length reuses the buffer *)
let test_message_lent () =
  let smem = Memory.create Abi.x86_64 in
  let rreg = Registry.create Abi.sparc_32 in
  ignore (Registry.register rreg Fx.decl_a);
  let sfmt = Registry.register (Registry.create Abi.x86_64) Fx.decl_a in
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  let send equip =
    Memory.reset smem;
    let v = Omf_testkit.Shapes.with_equip equip in
    let msg = message smem sfmt (Native.store smem sfmt v) in
    check value_testable ("decodes to its own value: " ^ equip) v
      (snd (Receiver.receive_value receiver msg));
    msg
  in
  let short = send "B" in
  let long = send "heavy jet, long equipment string" in
  check bool "a new length gets a new buffer" false (short == long);
  let again = send "heavy jet, long equipment strinG" in
  check bool "a repeated length reuses the buffer" true (long == again);
  ignore (send "B")

(* a message framed behind a kind byte converts where it lies *)
let test_receive_at_offset () =
  let sfmt = Registry.register (Registry.create Abi.x86_64) Fx.decl_a in
  let rreg = Registry.create Abi.sparc_32 in
  ignore (Registry.register rreg Fx.decl_a);
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  let msg = message_of_value Abi.x86_64 sfmt Fx.value_a in
  let framed = Bytes.cat (Bytes.make 1 'M') msg in
  let fmt, addr = Receiver.receive ~off:1 receiver framed in
  check value_testable "value at offset 1" Fx.value_a
    (Native.load (Receiver.memory receiver) fmt addr);
  match Receiver.receive ~off:2 receiver framed with
  | _ -> Alcotest.fail "a misplaced header was accepted"
  | exception Decode.Error { layer = "wire"; reason = Inconsistent; offset = 0 } -> ()

(* a relay replays every cached descriptor to a reconnecting
   subscriber: the blob already known under its id changes nothing *)
let test_learn_same_blob_once () =
  let sreg = Registry.create Abi.x86_64 in
  let rreg = Registry.create Abi.sparc_32 in
  let sfmt = Registry.register sreg Fx.decl_a in
  ignore (Registry.register rreg Fx.decl_a);
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  let blob = Format_codec.encode sfmt in
  let smem = Memory.create Abi.x86_64 in
  let send () =
    (* a fresh message each time: the compiled plan converts in place *)
    Memory.reset smem;
    ignore
      (Receiver.receive receiver
         (message smem sfmt (Native.store smem sfmt Fx.value_a)))
  in
  ignore (Receiver.learn receiver blob);
  send ();
  ignore (Receiver.learn receiver blob);
  send ();
  let s = Receiver.stats receiver in
  check int "the same blob is learned once" 1 s.Receiver.formats_learned;
  check int "its plan stays cached" 1 s.Receiver.plans_compiled

(* a different blob under a known id is a new format: learned again,
   and messages after it convert through a fresh plan *)
let test_learn_changed_blob () =
  let v1 = Registry.register (Registry.create Abi.x86_64) decl_v1 in
  let v2 = Registry.register (Registry.create Abi.x86_64) decl_v2 in
  check int "both versions share one wire id" v1.Format.id v2.Format.id;
  let rreg = Registry.create Abi.sparc_32 in
  ignore (Registry.register rreg decl_v2);
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  let smem = Memory.create Abi.x86_64 in
  let receive fmt v =
    Memory.reset smem;
    snd
      (Receiver.receive_value receiver
         (message smem fmt (Native.store smem fmt v)))
  in
  let lat_lon = [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43)) ] in
  ignore (Receiver.learn receiver (Format_codec.encode v1));
  ignore (receive v1 (Value.Record lat_lon));
  ignore (Receiver.learn receiver (Format_codec.encode v2));
  let full =
    Value.Record
      (lat_lon
      @ [ ("alt", Value.Float 10000.0); ("callsign", Value.String "DAL1771") ])
  in
  check value_testable "v2 fields arrive after the relearn" full
    (receive v2 full);
  let s = Receiver.stats receiver in
  check int "the changed blob is learned again" 2 s.Receiver.formats_learned;
  check int "its plan is recompiled" 2 s.Receiver.plans_compiled

(* ------------------------------------------------------------------ *)
(* Format negotiation descriptors                                       *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  List.iter
    (fun abi ->
      let reg = Registry.create abi in
      let _, _, _, d = Fx.register_all reg in
      let blob = Format_codec.encode d in
      let back = Format_codec.decode blob in
      check str "name survives" d.Format.name back.Format.name;
      check str "layout signature survives"
        (Format.layout_signature d) (Format.layout_signature back))
    Abi.all

let test_codec_rejects_corruption () =
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  let blob = Format_codec.encode a in
  (* flip a byte inside the layout section *)
  let corrupt = Bytes.of_string blob in
  Bytes.set corrupt (Bytes.length corrupt - 3) '\xFF';
  (try
     ignore (Format_codec.decode (Bytes.to_string corrupt));
     Alcotest.fail "expected a decode error"
   with Decode.Error { layer = "descriptor"; reason = Inconsistent; _ } -> ());
  try
    ignore (Format_codec.decode "OMD2garbage");
    Alcotest.fail "expected a decode error"
  with Decode.Error { layer = "descriptor"; reason = Truncated; _ } -> ()

let test_receiver_requires_negotiation () =
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  let msg = message_of_value Abi.x86_64 a Fx.value_a in
  let receiver = Receiver.create reg (Memory.create Abi.x86_64) in
  (* the peer broke the protocol: a message before its descriptor is a
     decode error at the header's format id, not a format this receiver
     lacks *)
  try
    ignore (Receiver.receive receiver msg);
    Alcotest.fail "expected a decode error"
  with Decode.Error { layer = "wire"; reason = Inconsistent; offset = 0 } -> ()

(* Input of the first NDR layout ({!Omf_testkit.Wire_v1}) is refused
   with the one decode error, never decoded: its descriptor by the
   magic, its message (under a format announced today) at the header,
   and a journal of it at its first descriptor. *)
let test_version_1_refused () =
  let module V1 = Omf_testkit.Wire_v1 in
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  (match Format_codec.decode (V1.descriptor a) with
  | _ -> Alcotest.fail "a version-1 descriptor was accepted"
  | exception Decode.Error { layer = "descriptor"; reason = Bad_magic; offset = 0 } -> ());
  let mem = Memory.create Abi.x86_64 in
  let addr = Native.store mem a Fx.value_a in
  let old = V1.message a (Encode.payload mem a addr) in
  let receiver = Receiver.create reg (Memory.create Abi.x86_64) in
  ignore (Receiver.learn receiver (Format_codec.encode a));
  (match Receiver.receive receiver old with
  | _ -> Alcotest.fail "a version-1 message was accepted"
  | exception Decode.Error { layer = "wire"; offset = 0; _ } -> ());
  check int "nothing received" 0 (Receiver.stats receiver).messages;
  let path = Filename.temp_file "omf-v1" ".jrnl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let frame kind body = V1.u32 (1 + String.length body) ^ kind ^ body in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ("OMFJRNL1" ^ frame "D" (V1.descriptor a) ^ frame "M" (Bytes.to_string old)));
  let reader, close =
    Omf_journal.Journal.Reader.of_file path reg (Memory.create Abi.x86_64)
  in
  Fun.protect ~finally:close @@ fun () ->
  match Omf_journal.Journal.Reader.next_value reader with
  | _ -> Alcotest.fail "a version-1 journal was replayed"
  | exception Decode.Error { layer = "descriptor"; reason = Bad_magic; offset = 8 } -> ()

(* ------------------------------------------------------------------ *)
(* Framing                                                              *)
(* ------------------------------------------------------------------ *)

(* the header is exactly the format id, a big-endian u32, and a message
   is that header and the NDR payload, nothing more *)
let test_wire_header_roundtrip () =
  let reg = Registry.create Abi.sparc_64 in
  let _, _, _, d = Fx.register_all reg in
  let d = { d with Format.id = 0x01020304 } in
  check int "header length" 4 Wire.header_length;
  let b = Bytes.make (3 + Wire.header_length + 268) '\xAA' in
  Wire.put_header d b ~off:3;
  check int "format id" d.Format.id (Wire.format_id ~off:3 b);
  check str "the header is the big-endian id" "\001\002\003\004"
    (Bytes.sub_string b 3 4);
  check str "nothing else written"
    (String.make 3 '\xAA' ^ "\001\002\003\004" ^ String.make 268 '\xAA')
    (Bytes.to_string b);
  let mem = Memory.create Abi.sparc_64 in
  let addr = Native.store mem d Fx.value_d in
  let payload = Bytes.to_string (Encode.payload mem d addr) in
  check str "message = id ^ payload" ("\001\002\003\004" ^ payload)
    (Bytes.to_string (message mem d addr));
  check str "after a kind byte" ("M\001\002\003\004" ^ payload)
    (Bytes.to_string (message ~kind:'M' mem d addr))

let test_wire_rejects_garbage () =
  List.iter
    (fun (short, off) ->
      try
        ignore (Wire.format_id ~off (Bytes.of_string short));
        Alcotest.failf "a %d-byte header was accepted" (String.length short - off)
      with Decode.Error { layer = "wire"; reason = Truncated; offset = 0 } -> ())
    [ ("", 0); ("abc", 0); ("Mabc", 1); ("abcd", 1); ("abcd", 4) ];
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  let msg = message_of_value Abi.x86_64 a Fx.value_a in
  let receiver = Receiver.create reg (Memory.create Abi.x86_64) in
  ignore (Receiver.learn receiver (Format_codec.encode a));
  let refused what layer reason m =
    match Receiver.receive receiver m with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Decode.Error e when e.layer = layer && e.reason = reason -> ()
  in
  let zero_id = Bytes.copy msg in
  Bytes.fill zero_id 0 Wire.header_length '\000';
  refused "a zero format id" "wire" Inconsistent zero_id;
  (* the payload runs to the end of the frame: one byte short loses the
     last string's terminator, and a cut inside the base image its
     fields *)
  refused "a payload one byte short" "ndr" Truncated
    (Bytes.sub msg 0 (Bytes.length msg - 1));
  refused "a cut base image" "ndr" Truncated (Bytes.sub msg 0 (Wire.header_length + 8));
  refused "a bare header" "ndr" Truncated (Bytes.sub msg 0 Wire.header_length);
  check int "nothing received" 0 (Receiver.stats receiver).messages

let test_malicious_payload_bounds () =
  (* a payload whose string offset points outside must be rejected, not
     read out of bounds *)
  let reg = Registry.create Abi.x86_64 in
  let fmt = Registry.register reg (Ftype.declare "s" [ ("x", "string") ]) in
  let evil = Bytes.make (Format.struct_size fmt) '\000' in
  Endian.write_uint Endian.Little evil ~off:0 ~size:8 9999L;
  let rfmt = Format_codec.decode (Format_codec.encode fmt) in
  let plan = Convert.compile ~wire:rfmt ~native:fmt in
  try
    ignore (Convert.run plan evil (Memory.create Abi.x86_64));
    Alcotest.fail "expected a decode error"
  with Decode.Error { layer = "ndr"; reason = Truncated; offset = 9999 } -> ()

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_native_fixpoint =
  QCheck.Test.make ~name:"native store/load fixpoint (random formats)"
    ~count:200
    (QCheck.make (Omf_testkit.Gen.format_and_value ()))
    (fun (abi, fmt, v) ->
      let mem = Memory.create abi in
      let v1 = Native.load mem fmt (Native.store mem fmt v) in
      let v2 = Native.load mem fmt (Native.store mem fmt v1) in
      Value.equal v1 v2)

(* the control relation [Format.resolve] keeps by index, recomputed
   from the declaration's names *)
let prop_control_indices_agree =
  QCheck.Test.make ~name:"resolved control indices agree with the names"
    ~count:200
    (QCheck.make (Omf_testkit.Gen.format_and_value ()))
    (fun (_, fmt, _) ->
      let fields = fmt.Format.fields in
      let all = List.init (Array.length fields) Fun.id in
      (* the indices of the arrays the field named [c] counts *)
      let counted c =
        List.filter
          (fun j ->
            match fields.(j).Format.rf_dim with
            | Format.Rvar { control; _ } -> String.equal control c
            | Format.Rscalar | Format.Rfixed _ -> false)
          all
      in
      let before i = List.exists (fun j -> j < i) in
      List.for_all2
        (fun i (d : Ftype.field) ->
          let f = fields.(i) in
          let arrays = counted d.Ftype.f_name in
          String.equal fmt.Format.names.(i) d.Ftype.f_name
          && String.equal f.Format.rf_name d.Ftype.f_name
          && String.equal f.Format.rf_layout.Layout.name d.Ftype.f_name
          && f.Format.rf_counts = (match arrays with j :: _ -> j | [] -> -1)
          &&
          match (d.Ftype.f_dim, f.Format.rf_dim) with
          | Ftype.Var c, Format.Rvar { control; at } ->
            String.equal control c
            && String.equal fmt.Format.names.(at) c
            && f.Format.rf_recount = (at < i || before i (counted c))
          | (Ftype.Scalar | Ftype.Fixed _), (Format.Rscalar | Format.Rfixed _) ->
            f.Format.rf_recount = before i arrays
          | _ -> false)
        all fmt.Format.decl.Ftype.fields)

let prop_cross_abi_transfer =
  QCheck.Test.make
    ~name:"cross-ABI NDR transfer preserves values (random formats)"
    ~count:200
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let sent = Native.load smem sfmt addr in
      let msg = message smem sfmt addr in
      let rreg = Registry.create receiver_abi in
      ignore (Registry.register rreg sfmt.Format.decl);
      let receiver = Receiver.create rreg (Memory.create receiver_abi) in
      ignore (Receiver.learn receiver (Format_codec.encode sfmt));
      let _, received = Receiver.receive_value receiver msg in
      Value.equal sent received)

let prop_unoptimized_plan_equivalent =
  QCheck.Test.make
    ~name:"unoptimized plans produce identical structs (random formats)"
    ~count:150
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let payload = Encode.payload smem sfmt addr in
      let wire = Format_codec.decode (Format_codec.encode sfmt) in
      let rreg = Registry.create receiver_abi in
      let native = Registry.register rreg sfmt.Format.decl in
      let receive plan =
        let mem = Memory.create receiver_abi in
        Native.load mem native (Convert.run plan payload mem)
      in
      Value.equal
        (receive (Convert.compile ~wire ~native))
        (receive (Convert.compile_unoptimized ~wire ~native)))

let prop_evolution_shared_fields_survive =
  QCheck.Test.make
    ~name:"evolution: shared fields survive sender-side field additions"
    ~count:150
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, old_fmt, _), receiver_abi) ->
      (* the sender upgrades: extra fields appended to the declaration *)
      let new_decl =
        { old_fmt.Format.decl with
          Ftype.fields =
            old_fmt.Format.decl.Ftype.fields
            @ [ Ftype.io_field "evo_extra_1" "double"
              ; Ftype.io_field "evo_extra_2" "string" ] }
      in
      let sreg = Registry.create sender_abi in
      let sfmt = Registry.register sreg new_decl in
      QCheck.Gen.generate1 (Omf_testkit.Gen.value_for_format sfmt)
      |> fun v ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let sent = Native.load smem sfmt addr in
      let msg = message smem sfmt addr in
      (* the receiver still runs the OLD declaration *)
      let rreg = Registry.create receiver_abi in
      ignore (Registry.register rreg old_fmt.Format.decl);
      let receiver = Receiver.create rreg (Memory.create receiver_abi) in
      ignore (Receiver.learn receiver (Format_codec.encode sfmt));
      let _, received = Receiver.receive_value receiver msg in
      (* every field of the old declaration must carry the sent value *)
      List.for_all
        (fun (f : Ftype.field) ->
          match (Value.field sent f.Ftype.f_name, Value.field received f.Ftype.f_name) with
          | Some a, Some b -> Value.equal a b
          | _ -> false)
        old_fmt.Format.decl.Ftype.fields)

let prop_interpreted_equals_compiled =
  QCheck.Test.make
    ~name:"interpreted conversion = compiled plans (random formats)"
    ~count:150
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let rreg = Registry.create receiver_abi in
      ignore (Registry.register rreg sfmt.Format.decl);
      let compiled, interpreted =
        convert_both (Memory.create sender_abi) sfmt rreg v
      in
      Value.equal compiled interpreted)

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                   *)
(* ------------------------------------------------------------------ *)

(* Bytes per call of the four per-event entry points on the shapes
   bench/e2e sends. Allocation is deterministic, so these are exact
   gates, not timings: each entry point allocates what it returns and
   nothing else (the probe itself reads about 0.2 B per call).
   - [Native.store] returns an address: nothing, not even for an
     omitted control field's count or a computed alignment (<= 1 B);
   - [Pbio.message] lends the memory's buffer, so once warm it
     allocates <= 256 B (a fresh message would cost its own bytes);
   - [Receiver.receive] converts in place and returns a pair: the
     pair's 24 B (<= 25 B);
   - [Native.load] returns a [Value.t]: at most the bytes reachable from
     it (field names included, which it shares with the format); a
     float array is one [Value.Floats], 8 B per element (a boxed
     [Value.Float] would be 40 B), and a [char] is read without a
     boxed integer. *)
let test_alloc_budget (shape : Omf_testkit.Shapes.t) () =
  let m = Omf_testkit.Shapes.measure shape in
  let within what got budget =
    if got > budget then
      Alcotest.failf "%s: %s allocates %.1f B per call (budget %.0f B)"
        shape.name what got budget
  in
  within "Native.store" m.bind 1.0;
  within "Pbio.message" m.encode 256.0;
  within "Receiver.receive" m.receive 25.0;
  within "Native.load" m.load (float_of_int m.value_bytes)

(* Absolute budgets on science-16k's double[2048]. The budget above is
   relative to the loaded value, so it would pass a regression back to
   boxed floats (2 048 x 40 B); these would not.
   - [Native.load] allocates the array's 8 B per element + 1 KiB;
   - [Native.store] of the value with its data as [Value.Floats] moves
     the array through [Memory.write_floats]: <= 256 B. *)
let test_alloc_science_floats () =
  let module Shapes = Omf_testkit.Shapes in
  let shape = List.find (fun (s : Shapes.t) -> s.name = "science-16k") Shapes.bench in
  let m = Shapes.measure shape in
  let load_budget = float_of_int ((2048 * 8) + 1024) in
  if m.load > load_budget then
    Alcotest.failf "science-16k: Native.load allocates %.0f B per call (budget %.0f B)"
      m.load load_budget;
  let data =
    Float.Array.map_from_array Value.to_float_exn
      (Value.to_array_exn (Value.field_exn shape.value "data"))
  in
  let value = Value.set_field shape.value "data" (Value.Floats data) in
  let fmt = Shapes.register shape.send_abi shape in
  let mem = Memory.create shape.send_abi in
  let bind =
    Omf_testkit.Alloc.bytes_per_call (fun () ->
        Memory.reset mem;
        Native.store mem fmt value)
  in
  if bind > 256.0 then
    Alcotest.failf
      "science-16k: Native.store of Floats allocates %.0f B per call (budget 256 B)"
      bind;
  (* and it binds the same bytes as the boxed array *)
  let image v =
    Memory.reset mem;
    let addr = Native.store mem fmt v in
    Bytes.to_string (Memory.read_bytes mem addr fmt.Format.layout.Layout.size)
  in
  Alcotest.(check string) "same native image" (image shape.value) (image value)

(* Absolute budgets on [Native.load] of the shapes with many fields.
   The budget above is relative to the loaded value, so it would pass a
   return to a by-name spine (a cons cell and a pair per field, 48 B);
   these would not: paper-a's eight fields loaded 696 B that way,
   durable-cd's 44 values in four records 3 728 B. *)
let test_alloc_positional_load () =
  let module Shapes = Omf_testkit.Shapes in
  List.iter
    (fun (name, budget) ->
      let shape = List.find (fun (s : Shapes.t) -> s.name = name) Shapes.bench in
      let m = Shapes.measure shape in
      if m.load > budget then
        Alcotest.failf "%s: Native.load allocates %.0f B per call (budget %.0f B)"
          name m.load budget)
    [ ("paper-a", 400.0); ("durable-cd", 2700.0) ]

(* A loaded value stores back by position: no allocation, and the same
   native image as the by-name record it was loaded from, whether it was
   loaded in the very format it is stored in (its names physically
   shared) or under another ABI (equal names, another array). *)
let test_alloc_store_loaded () =
  let module Shapes = Omf_testkit.Shapes in
  let image mem fmt v =
    Memory.reset mem;
    let addr = Native.store mem fmt v in
    Bytes.to_string (Memory.read_bytes mem addr (Memory.allocated_bytes mem))
  in
  List.iter
    (fun (shape : Shapes.t) ->
      List.iter
        (fun (load_abi : Abi.t) ->
          let lfmt = Shapes.register load_abi shape in
          let lmem = Memory.create load_abi in
          let loaded = Native.load lmem lfmt (Native.store lmem lfmt shape.value) in
          List.iter
            (fun (abi : Abi.t) ->
              let fmt =
                if abi == load_abi then lfmt else Shapes.register abi shape
              in
              let mem = Memory.create abi in
              let what = Printf.sprintf "%s loaded on %s, stored on %s"
                  shape.name load_abi.Abi.name abi.Abi.name in
              check str (what ^ ": same image") (image mem fmt shape.value)
                (image mem fmt loaded);
              let bytes =
                Omf_testkit.Alloc.bytes_per_call (fun () ->
                    Memory.reset mem;
                    Native.store mem fmt loaded)
              in
              if bytes > 1.0 then
                Alcotest.failf "%s: Native.store allocates %.1f B per call" what
                  bytes)
            Abi.all)
        Abi.all)
    Shapes.bench

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pbio"
    [ ( "ftype",
        [ Alcotest.test_case "type strings" `Quick test_type_strings
        ; Alcotest.test_case "bad type strings" `Quick test_bad_type_strings ] )
    ; ( "registration",
        [ Alcotest.test_case "Table 1 struct sizes (sparc-32)" `Quick
            test_paper_struct_sizes_sparc32
        ; Alcotest.test_case "LP64 sizes differ" `Quick
            test_paper_struct_sizes_x86_64
        ; Alcotest.test_case "registration errors" `Quick test_registration_errors
        ; Alcotest.test_case "catalog ordering enforced" `Quick
            test_nested_must_exist_first ] )
    ; ( "native",
        [ Alcotest.test_case "store/load fixpoint on every ABI" `Quick
            test_native_roundtrip_all_abis
        ; Alcotest.test_case "control field autofill" `Quick
            test_control_field_autofill
        ; Alcotest.test_case "control disagreement rejected" `Quick
            test_control_field_disagreement_rejected
        ; Alcotest.test_case "float arrays load unboxed" `Quick
            test_float_arrays_load_unboxed
        ; Alcotest.test_case "missing field rejected" `Quick
            test_missing_field_rejected
        ; Alcotest.test_case "unknown field rejected" `Quick
            test_unknown_field_rejected
        ; Alcotest.test_case "char[N] strings" `Quick test_char_array_semantics
        ; Alcotest.test_case "empty dynamic arrays" `Quick
            test_empty_dynamic_array ]
        @ qsuite [ prop_native_fixpoint; prop_control_indices_agree ] )
    ; ( "encode",
        [ Alcotest.test_case "Table 1 encoded sizes (sparc-32)" `Quick
            test_encoded_sizes_sparc32
        ; Alcotest.test_case "payload starts with native image" `Quick
            test_encode_starts_with_native_image
        ; Alcotest.test_case "ABI mismatch rejected" `Quick
            test_encode_rejects_wrong_abi_memory
        ; Alcotest.test_case "message lent by its memory" `Quick
            test_message_lent ] )
    ; ( "transfer",
        [ Alcotest.test_case "homogeneous" `Quick test_homogeneous_transfer
        ; Alcotest.test_case "full cross-ABI matrix (A, B, D)" `Slow
            test_cross_abi_matrix
        ; Alcotest.test_case "interpreted matches compiled" `Quick
            test_interpreted_matches_compiled
        ; Alcotest.test_case "homogeneous plan collapses to one blit" `Quick
            test_homogeneous_plan_collapses
        ; Alcotest.test_case "field kind mismatch detected" `Quick
            test_field_mismatch_detected
        ; Alcotest.test_case "dynamic string arrays (char**)" `Quick
            test_dynamic_string_arrays
        ; Alcotest.test_case "receiver statistics" `Quick test_receiver_stats ]
        @ qsuite
            [ prop_cross_abi_transfer; prop_interpreted_equals_compiled
            ; prop_unoptimized_plan_equivalent
            ; prop_evolution_shared_fields_survive ] )
    ; ( "evolution",
        [ Alcotest.test_case "old receiver, new sender" `Quick
            test_old_receiver_new_sender
        ; Alcotest.test_case "new receiver, old sender" `Quick
            test_new_receiver_old_sender ] )
    ; ( "negotiation",
        [ Alcotest.test_case "descriptor round-trip" `Quick test_codec_roundtrip
        ; Alcotest.test_case "corruption rejected" `Quick
            test_codec_rejects_corruption
        ; Alcotest.test_case "receive before negotiation fails" `Quick
            test_receiver_requires_negotiation
        ; Alcotest.test_case "version-1 input refused, never decoded" `Quick
            test_version_1_refused
        ; Alcotest.test_case "same descriptor learned once" `Quick
            test_learn_same_blob_once
        ; Alcotest.test_case "changed descriptor relearned" `Quick
            test_learn_changed_blob ] )
    ; ( "framing",
        [ Alcotest.test_case "header round-trip" `Quick test_wire_header_roundtrip
        ; Alcotest.test_case "garbage rejected" `Quick test_wire_rejects_garbage
        ; Alcotest.test_case "malicious payload bounds-checked" `Quick
            test_malicious_payload_bounds
        ; Alcotest.test_case "receive at an offset" `Quick
            test_receive_at_offset ] )
    ; ( "alloc",
        List.map
          (fun (shape : Omf_testkit.Shapes.t) ->
            Alcotest.test_case shape.name `Quick (test_alloc_budget shape))
          (Omf_testkit.Shapes.bench @ [ Omf_testkit.Shapes.strvar ])
        @ [ Alcotest.test_case "science-16k floats" `Quick
              test_alloc_science_floats
          ; Alcotest.test_case "positional load" `Quick
              test_alloc_positional_load
          ; Alcotest.test_case "store of a loaded value" `Quick
              test_alloc_store_loaded ] ) ]
