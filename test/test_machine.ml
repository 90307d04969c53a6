(** Tests for the machine substrate: endianness codecs, ABI descriptions,
    the struct layout engine and the simulated address space. *)

open Omf_machine

let check = Alcotest.check
let int = Alcotest.int
let str = Alcotest.string
let bool = Alcotest.bool

(* the laid-out field named [name] *)
let field (l : Layout.t) name =
  List.find (fun (f : Layout.field) -> String.equal f.Layout.name name) l.Layout.fields

(* ------------------------------------------------------------------ *)
(* Endian                                                              *)
(* ------------------------------------------------------------------ *)

let test_endian_known_patterns () =
  let b = Bytes.make 8 '\000' in
  Endian.write_uint Endian.Big b ~off:0 ~size:4 0x11223344L;
  check str "big-endian layout" "11223344" (Omf_util.Hexdump.short (Bytes.sub b 0 4));
  Endian.write_uint Endian.Little b ~off:0 ~size:4 0x11223344L;
  check str "little-endian layout" "44332211"
    (Omf_util.Hexdump.short (Bytes.sub b 0 4))

let test_endian_signed_readback () =
  let b = Bytes.make 8 '\000' in
  Endian.write_uint Endian.Big b ~off:0 ~size:2 (-2L);
  check str "two's complement" "fffe" (Omf_util.Hexdump.short (Bytes.sub b 0 2));
  let v = Endian.read_int Endian.Big b ~off:0 ~size:2 in
  check bool "sign extension" true (Int64.equal v (-2L));
  let u = Endian.read_uint Endian.Big b ~off:0 ~size:2 in
  check bool "unsigned view" true (Int64.equal u 0xFFFEL)

let test_endian_floats () =
  let b = Bytes.make 8 '\000' in
  Endian.write_float Endian.Little b ~off:0 ~size:8 1.5;
  check (Alcotest.float 0.0) "double round-trip" 1.5
    (Endian.read_float Endian.Little b ~off:0 ~size:8);
  Endian.write_float Endian.Big b ~off:0 ~size:4 0.25;
  check (Alcotest.float 0.0) "single round-trip" 0.25
    (Endian.read_float Endian.Big b ~off:0 ~size:4);
  (* single-precision rounding happens on store, like a C float assign *)
  Endian.write_float Endian.Big b ~off:0 ~size:4 1.1;
  let reread = Endian.read_float Endian.Big b ~off:0 ~size:4 in
  check bool "4-byte store rounds to single precision" true
    (Int32.bits_of_float 1.1 = Int32.bits_of_float reread)

let test_endian_swap () =
  let b = Bytes.of_string "\x01\x02\x03\x04" in
  Endian.swap_in_place b ~off:0 ~size:4;
  check str "swap" "04030201" (Omf_util.Hexdump.short b)

let test_endian_bounds () =
  let b = Bytes.make 4 '\000' in
  Alcotest.check_raises "write past end" (Invalid_argument "Endian.write_uint: bounds")
    (fun () -> Endian.write_uint Endian.Big b ~off:2 ~size:4 0L);
  Alcotest.check_raises "bad size" (Invalid_argument "Endian.read_uint: size")
    (fun () -> ignore (Endian.read_uint Endian.Big b ~off:0 ~size:9));
  (* each accessor names itself *)
  Alcotest.check_raises "read_float past end"
    (Invalid_argument "Endian.read_float: bounds") (fun () ->
      ignore (Endian.read_float Endian.Little b ~off:1 ~size:4));
  Alcotest.check_raises "write_float past end"
    (Invalid_argument "Endian.write_float: bounds") (fun () ->
      Endian.write_float Endian.Big b ~off:0 ~size:8 1.0);
  Alcotest.check_raises "read_int past end"
    (Invalid_argument "Endian.read_int: bounds") (fun () ->
      ignore (Endian.read_int Endian.Big b ~off:3 ~size:2))

(* [Endian.convert] against the boxed reference path it replaces: read
   the value whole, then store it (same-width floats move as bits) *)
let prop_endian_convert =
  QCheck.Test.make ~name:"convert = read then write"
    ~count:1000
    QCheck.(
      pair
        (triple (oneofl [ Endian.Signed; Endian.Unsigned; Endian.Ieee ])
           (pair (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 1; 2; 4; 8 ]))
           (pair bool bool))
        (string_of_size (Gen.return 8)))
    (fun ((kind, (ss, ds), (sbig, dbig)), src) ->
      let order big = if big then Endian.Big else Endian.Little in
      let so = order sbig and dst_order = order dbig in
      let src = Bytes.of_string src in
      let got = Bytes.make 8 '\x55' and want = Bytes.make 8 '\x55' in
      match kind with
      | Endian.Ieee when ss < 4 || ds < 4 -> true
      | Endian.Ieee when ss <> ds ->
        Endian.convert kind so src ~src_off:0 ~src_size:ss dst_order got ~dst_off:0 ~dst_size:ds;
        Endian.write_float dst_order want ~off:0 ~size:ds
          (Endian.read_float so src ~off:0 ~size:ss);
        Bytes.equal got want
      | _ ->
        Endian.convert kind so src ~src_off:0 ~src_size:ss dst_order got ~dst_off:0 ~dst_size:ds;
        Endian.write_uint dst_order want ~off:0 ~size:ds
          (if kind = Endian.Signed then Endian.read_int so src ~off:0 ~size:ss
           else Endian.read_uint so src ~off:0 ~size:ss);
        Bytes.equal got want)

let test_endian_swap_blit () =
  List.iter
    (fun size ->
      let count = 5 in
      let src = Bytes.init (size * count) (fun i -> Char.chr (i * 7 land 0xff)) in
      let got = Bytes.make (size * count) '\000' in
      Endian.swap_blit ~src ~src_off:0 ~dst:got ~dst_off:0 ~size ~count;
      let want = Bytes.copy src in
      for i = 0 to count - 1 do
        Endian.swap_in_place want ~off:(i * size) ~size
      done;
      check str (Printf.sprintf "%d-byte values" size)
        (Omf_util.Hexdump.short want) (Omf_util.Hexdump.short got);
      (* at offsets, leaving the bytes around the span alone *)
      let got = Bytes.make ((size * count) + 5) '\000' in
      Endian.swap_blit ~src:(Bytes.cat (Bytes.make 3 'x') src) ~src_off:3
        ~dst:got ~dst_off:2 ~size ~count;
      check str (Printf.sprintf "%d-byte values at offsets" size)
        ("0000" ^ Omf_util.Hexdump.short want ^ "000000")
        (Omf_util.Hexdump.short got))
    [ 1; 2; 3; 4; 8 ];
  (* a span past either end, or a count whose span overflows, is refused
     before a byte is written *)
  let src = Bytes.make 16 '\001' in
  List.iter
    (fun (what, src_off, dst_off, size, count) ->
      let dst = Bytes.make 16 '\000' in
      Alcotest.check_raises what (Invalid_argument "Endian.swap_blit") (fun () ->
          Endian.swap_blit ~src ~src_off ~dst ~dst_off ~size ~count);
      check str (what ^ ": nothing written") (String.make 32 '0')
        (Omf_util.Hexdump.short dst))
    [ ("source end", 1, 0, 8, 2); ("destination end", 0, 9, 8, 1)
    ; ("negative offset", -1, 0, 4, 1); ("negative count", 0, 0, 2, -1)
    ; (* 8 * count wraps round to 8 *)
      ("overflowing count", 0, 0, 8, (1 lsl 60) + 1) ]

(* the conversion hot path's primitives keep every value unboxed *)
let test_endian_no_allocation () =
  let b = Bytes.make 64 '\001' and d = Bytes.make 64 '\000' in
  let none what f =
    let per_call = Omf_testkit.Alloc.bytes_per_call ~iters:1000 f in
    if per_call >= 1.0 then
      Alcotest.failf "%s allocates %.1f B per call" what per_call
  in
  none "write_float 8" (fun () -> Endian.write_float Endian.Big d ~off:8 ~size:8 1.5);
  none "write_float 4" (fun () -> Endian.write_float Endian.Big d ~off:8 ~size:4 1.5);
  none "read_offset" (fun () -> Endian.read_offset Endian.Big b ~off:0 ~size:8);
  none "write_offset" (fun () -> Endian.write_offset Endian.Little d ~off:0 ~size:4 77);
  none "read_count" (fun () -> Endian.read_count Endian.Little b ~off:0 ~size:2);
  List.iter
    (fun (kind, ss, ds) ->
      none
        (Printf.sprintf "convert %d->%d" ss ds)
        (fun () ->
          Endian.convert kind Endian.Little b ~src_off:0 ~src_size:ss Endian.Big d
            ~dst_off:16 ~dst_size:ds))
    [ (Endian.Signed, 4, 8); (Endian.Unsigned, 8, 2); (Endian.Ieee, 8, 8)
    ; (Endian.Ieee, 4, 8); (Endian.Ieee, 8, 4) ];
  none "swap_blit" (fun () ->
      Endian.swap_blit ~src:b ~src_off:0 ~dst:d ~dst_off:0 ~size:8 ~count:8)

let prop_endian_roundtrip =
  QCheck.Test.make ~name:"endian round-trip (uint, any size/order)" ~count:500
    QCheck.(
      triple (int_range 1 8) bool
        (map Int64.of_int (int_range (-1_000_000_000) 1_000_000_000)))
    (fun (size, big, v) ->
      let order = if big then Endian.Big else Endian.Little in
      let mask =
        if size = 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * size)) 1L
      in
      let v = Int64.logand v mask in
      let b = Bytes.make 16 '\x55' in
      Endian.write_uint order b ~off:3 ~size v;
      Int64.equal v (Endian.read_uint order b ~off:3 ~size))

let prop_endian_signed_roundtrip =
  QCheck.Test.make ~name:"endian round-trip (signed, any size/order)" ~count:500
    QCheck.(triple (int_range 1 8) bool (int_range (-30000) 30000))
    (fun (size, big, v) ->
      let size = max 1 (min 8 size) in
      let order = if big then Endian.Big else Endian.Little in
      (* clamp into the representable range of the chosen width *)
      let max_v = Int64.sub (Int64.shift_left 1L ((8 * size) - 1)) 1L in
      let v = Int64.rem (Int64.of_int v) (Int64.add max_v 1L) in
      let b = Bytes.make 16 '\000' in
      Endian.write_uint order b ~off:0 ~size v;
      Int64.equal v (Endian.read_int order b ~off:0 ~size))

(* ------------------------------------------------------------------ *)
(* Abi                                                                 *)
(* ------------------------------------------------------------------ *)

let test_abi_sizes () =
  check int "x86-32 long" 4 (Abi.size_of Abi.x86_32 Abi.Long);
  check int "x86-64 long" 8 (Abi.size_of Abi.x86_64 Abi.Long);
  check int "x86-64 pointer" 8 (Abi.size_of Abi.x86_64 Abi.Pointer);
  check int "float is always 4" 4 (Abi.size_of Abi.sparc_64 Abi.Float);
  check int "i386 aligns double to 4" 4 (Abi.align_of Abi.x86_32 Abi.Double);
  check int "sparc aligns double to 8" 8 (Abi.align_of Abi.sparc_32 Abi.Double)

let test_abi_fingerprints () =
  List.iter
    (fun a ->
      let fp = Abi.fingerprint a in
      check int "fingerprint length" 6 (String.length fp);
      let b = Abi.of_fingerprint fp in
      (* x86-64 and alpha-64 share a layout, hence a fingerprint; what a
         fingerprint must preserve is the layout, not the name *)
      check bool ("fingerprint round-trips layout of " ^ a.Abi.name) true
        (Abi.layout_equal a b))
    Abi.all

let test_abi_fingerprint_rejects_junk () =
  (try
     ignore (Abi.of_fingerprint "junk!!");
     Alcotest.fail "expected Bad_fingerprint"
   with Abi.Bad_fingerprint _ -> ());
  try
    ignore (Abi.of_fingerprint "xy");
    Alcotest.fail "expected Bad_fingerprint"
  with Abi.Bad_fingerprint _ -> ()

let test_abi_layout_equal () =
  check bool "reflexive" true (Abi.layout_equal Abi.x86_64 Abi.x86_64);
  check bool "x86-32 vs arm-32 differ (alignment cap)" false
    (Abi.layout_equal Abi.x86_32 Abi.arm_32);
  check bool "x86-64 vs sparc-64 differ (byte order)" false
    (Abi.layout_equal Abi.x86_64 Abi.sparc_64);
  check bool "x86-64 vs alpha-64 agree" true
    (Abi.layout_equal Abi.x86_64 Abi.alpha_64)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let decl name ctype dim = { Layout.d_name = name; d_ctype = ctype; d_dim = dim }

let test_layout_char_int () =
  (* { char c; int i; } -> i at int-alignment, size offset+4 rounded:
     4/8 on natural-alignment profiles, 2/6 on m68k *)
  List.iter
    (fun abi ->
      let l =
        Layout.compute ~abi ~name:"ci"
          [ decl "c" (Layout.Prim Abi.Char) Layout.Scalar
          ; decl "i" (Layout.Prim Abi.Int) Layout.Scalar ]
      in
      let ia = Abi.align_of abi Abi.Int in
      let i = field l "i" in
      check int (abi.Abi.name ^ " int offset") ia i.Layout.offset;
      check int (abi.Abi.name ^ " struct size")
        ((ia + 4 + ia - 1) / ia * ia)
        l.Layout.size)
    Abi.all;
  (* the m68k case specifically *)
  let l =
    Layout.compute ~abi:(Option.get (Abi.find_by_name "m68k-32")) ~name:"ci"
      [ decl "c" (Layout.Prim Abi.Char) Layout.Scalar
      ; decl "i" (Layout.Prim Abi.Int) Layout.Scalar ]
  in
  check int "m68k packs int at 2" 2
    (field l "i").Layout.offset;
  check int "m68k struct size 6" 6 l.Layout.size

let test_layout_double_alignment_differs () =
  let mk abi =
    Layout.compute ~abi ~name:"cd"
      [ decl "c" (Layout.Prim Abi.Char) Layout.Scalar
      ; decl "d" (Layout.Prim Abi.Double) Layout.Scalar ]
  in
  let x86 = mk Abi.x86_32 and sparc = mk Abi.sparc_32 in
  check int "i386 packs double at 4" 4
    (field x86 "d").Layout.offset;
  check int "i386 size 12" 12 x86.Layout.size;
  check int "sparc places double at 8" 8
    (field sparc "d").Layout.offset;
  check int "sparc size 16" 16 sparc.Layout.size

let test_layout_trailing_padding () =
  (* { double d; char c; } -> size rounds up to 16 where align8 = 8 *)
  let l =
    Layout.compute ~abi:Abi.sparc_32 ~name:"dc"
      [ decl "d" (Layout.Prim Abi.Double) Layout.Scalar
      ; decl "c" (Layout.Prim Abi.Char) Layout.Scalar ]
  in
  check int "trailing padding" 16 l.Layout.size

let test_layout_fixed_array () =
  let l =
    Layout.compute ~abi:Abi.x86_64 ~name:"arr"
      [ decl "c" (Layout.Prim Abi.Char) Layout.Scalar
      ; decl "a" (Layout.Prim Abi.Int) (Layout.Fixed_array 5) ]
  in
  let a = field l "a" in
  check int "array offset" 4 a.Layout.offset;
  check int "array field size" 20 a.Layout.field_size;
  check int "struct size" 24 l.Layout.size

let test_layout_pointer_field () =
  let l32 =
    Layout.compute ~abi:Abi.x86_32 ~name:"p"
      [ decl "s" (Layout.Prim Abi.Pointer) (Layout.Pointer_to (Layout.Prim Abi.Char)) ]
  in
  let l64 =
    Layout.compute ~abi:Abi.x86_64 ~name:"p"
      [ decl "s" (Layout.Prim Abi.Pointer) (Layout.Pointer_to (Layout.Prim Abi.Char)) ]
  in
  check int "32-bit pointer" 4 l32.Layout.size;
  check int "64-bit pointer" 8 l64.Layout.size

let test_layout_nested_struct () =
  let inner =
    Layout.compute ~abi:Abi.sparc_32 ~name:"inner"
      [ decl "x" (Layout.Prim Abi.Char) Layout.Scalar
      ; decl "d" (Layout.Prim Abi.Double) Layout.Scalar ]
  in
  (* inner: size 16 align 8 *)
  let outer =
    Layout.compute ~abi:Abi.sparc_32 ~name:"outer"
      [ decl "c" (Layout.Prim Abi.Char) Layout.Scalar
      ; decl "in1" (Layout.Struct inner) Layout.Scalar
      ; decl "c2" (Layout.Prim Abi.Char) Layout.Scalar ]
  in
  let in1 = field outer "in1" in
  check int "nested aligned to its struct alignment" 8 in1.Layout.offset;
  check int "outer size" 32 outer.Layout.size

let test_layout_duplicate_field_rejected () =
  try
    ignore
      (Layout.compute ~abi:Abi.x86_64 ~name:"dup"
         [ decl "x" (Layout.Prim Abi.Int) Layout.Scalar
         ; decl "x" (Layout.Prim Abi.Int) Layout.Scalar ]);
    Alcotest.fail "expected Layout_error"
  with Layout.Layout_error _ -> ()

let test_layout_bad_bound_rejected () =
  try
    ignore
      (Layout.compute ~abi:Abi.x86_64 ~name:"bad"
         [ decl "a" (Layout.Prim Abi.Int) (Layout.Fixed_array 0) ]);
    Alcotest.fail "expected Layout_error"
  with Layout.Layout_error _ -> ()

(* Random declaration lists for layout invariants. *)
let gen_layout_decls : Layout.decl list QCheck.Gen.t =
  let open QCheck.Gen in
  let prim =
    oneofl
      [ Abi.Char; Abi.Short; Abi.Int; Abi.Uint; Abi.Long; Abi.Ulong
      ; Abi.Longlong; Abi.Float; Abi.Double; Abi.Pointer ]
  in
  let field i =
    let* p = prim in
    let* d =
      frequency
        [ (4, return Layout.Scalar)
        ; (2, map (fun n -> Layout.Fixed_array n) (int_range 1 7))
        ; (1, return (Layout.Pointer_to (Layout.Prim Abi.Char))) ]
    in
    return (decl (Printf.sprintf "f%d" i) (Layout.Prim p) d)
  in
  let* n = int_range 1 12 in
  let rec go i acc = if i = n then return (List.rev acc)
    else let* f = field i in go (i + 1) (f :: acc)
  in
  go 0 []

let prop_layout_invariants =
  QCheck.Test.make ~name:"layout invariants (alignment, no overlap, size)"
    ~count:300
    (QCheck.make (QCheck.Gen.pair (QCheck.Gen.oneofl Abi.all) gen_layout_decls))
    (fun (abi, decls) ->
      let l = Layout.compute ~abi ~name:"q" decls in
      let sorted =
        List.sort
          (fun a b -> compare a.Layout.offset b.Layout.offset)
          l.Layout.fields
      in
      let aligned =
        List.for_all (fun f -> f.Layout.offset mod f.Layout.align = 0) sorted
      in
      let no_overlap =
        let rec go = function
          | a :: (b :: _ as rest) ->
            a.Layout.offset + a.Layout.field_size <= b.Layout.offset && go rest
          | _ -> true
        in
        go sorted
      in
      let size_ok =
        l.Layout.size mod l.Layout.struct_align = 0
        && List.for_all
             (fun f -> f.Layout.offset + f.Layout.field_size <= l.Layout.size)
             sorted
      in
      aligned && no_overlap && size_ok)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc_and_rw () =
  let m = Memory.create Abi.x86_64 in
  let a = Memory.alloc m ~align:8 16 in
  check bool "non-null" true (a <> Memory.null);
  Memory.write_int m a ~size:4 (-7L);
  check bool "readback" true (Int64.equal (-7L) (Memory.read_int m a ~size:4));
  Memory.write_float m (a + 8) ~size:8 6.25;
  check (Alcotest.float 0.0) "float readback" 6.25
    (Memory.read_float m (a + 8) ~size:8)

let test_memory_zero_initialised () =
  let m = Memory.create Abi.x86_64 in
  let a = Memory.alloc m ~align:8 64 in
  check bool "fresh blocks are zero" true
    (Bytes.for_all (fun c -> c = '\000') (Memory.read_bytes m a 64))

let test_memory_cstring () =
  let m = Memory.create Abi.sparc_32 in
  let a = Memory.alloc_cstring m "hello" in
  check str "cstring round-trip" "hello" (Memory.read_cstring m a);
  check int "strlen" 5 (Memory.strlen m a);
  let e = Memory.alloc_cstring m "" in
  check str "empty string is a real block" "" (Memory.read_cstring m e);
  check bool "empty string pointer non-null" true (e <> Memory.null)

let test_memory_pointers () =
  let m = Memory.create Abi.x86_32 in
  let target = Memory.alloc m ~align:8 4 in
  let slot = Memory.alloc m ~align:8 4 in
  Memory.write_pointer m slot target;
  check int "pointer round-trip" target (Memory.read_pointer m slot)

let test_memory_faults () =
  let m = Memory.create Abi.x86_64 in
  let a = Memory.alloc m ~align:8 8 in
  (try
     ignore (Memory.read_bytes m (a + 8) 8);
     Alcotest.fail "expected Fault"
   with Memory.Fault _ -> ());
  (try
     ignore (Memory.read_bytes m Memory.null 1);
     Alcotest.fail "expected Fault on null"
   with Memory.Fault _ -> ());
  try
    ignore (Memory.read_cstring m (a + 100));
    Alcotest.fail "expected Fault"
  with Memory.Fault _ -> ()

(* the bulk float accessors agree with the per-element ones in both byte
   orders and both widths, check their span once, and allocate only the
   array they return *)
let test_memory_floats () =
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun (abi : Abi.t) ->
      List.iter
        (fun size ->
          let n = 37 in
          let a = Float.Array.init n (fun i -> (float_of_int i *. 1.1) -. 7.3) in
          Float.Array.set a 3 Float.nan;
          Float.Array.set a 4 (-0.0);
          let m = Memory.create abi in
          let bulk = Memory.alloc m ~align:8 (n * size)
          and each = Memory.alloc m ~align:8 (n * size) in
          Memory.write_floats m bulk ~size a;
          Float.Array.iteri
            (fun i x -> Memory.write_float m (each + (i * size)) ~size x)
            a;
          let what = Printf.sprintf "%s, %d-byte" abi.Abi.name size in
          check str (what ^ ": write_floats bytes = write_float bytes")
            (Bytes.to_string (Memory.read_bytes m each (n * size)))
            (Bytes.to_string (Memory.read_bytes m bulk (n * size)));
          let back = Memory.read_floats m bulk ~size ~count:n in
          check int (what ^ ": count") n (Float.Array.length back);
          Float.Array.iteri
            (fun i x ->
              if bits x <> bits (Memory.read_float m (bulk + (i * size)) ~size) then
                Alcotest.failf "%s: element %d differs from read_float" what i)
            back;
          let per_call =
            Omf_testkit.Alloc.bytes_per_call (fun () ->
                Memory.read_floats m bulk ~size ~count:n)
          in
          (* the array's words and header, plus the probe's own ~0.2 B *)
          if per_call > float_of_int ((n + 1) * 8) +. 1.0 then
            Alcotest.failf "%s: read_floats allocates %.0f B for %d floats" what
              per_call n;
          let per_call =
            Omf_testkit.Alloc.bytes_per_call (fun () ->
                Memory.write_floats m bulk ~size a)
          in
          if per_call >= 1.0 then
            Alcotest.failf "%s: write_floats allocates %.1f B" what per_call)
        [ 8; 4 ])
    [ Abi.x86_64; Abi.sparc_64 ];
  let m = Memory.create Abi.x86_64 in
  let addr = Memory.alloc m ~align:8 64 in
  let names_span f =
    match f () with
    | _ -> Alcotest.fail "expected Fault"
    | exception Memory.Fault msg ->
      check bool ("names the whole span: " ^ msg) true
        (Omf_testkit.Strings.replace ~sub:"+72)" ~by:"" msg <> msg)
  in
  names_span (fun () -> ignore (Memory.read_floats m addr ~size:8 ~count:9));
  names_span (fun () ->
      Memory.write_floats m (addr - 8) ~size:8 (Float.Array.make 9 0.0));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Memory.read_floats: size must be 4 or 8") (fun () ->
      ignore (Memory.read_floats m addr ~size:2 ~count:1))

let test_memory_growth () =
  let m = Memory.create Abi.x86_64 in
  (* 500 blocks of 100 B: the 4 KiB arena grows several times *)
  let blocks = List.init 500 (fun i -> (Memory.alloc m ~align:8 100, i)) in
  List.iter (fun (a, i) -> Memory.write_int m a ~size:4 (Int64.of_int i)) blocks;
  List.iter
    (fun (a, i) ->
      check bool "survives arena growth" true
        (Int64.equal (Int64.of_int i) (Memory.read_int m a ~size:4)))
    blocks

let test_memory_reset () =
  let m = Memory.create Abi.x86_64 in
  let _ = Memory.alloc m ~align:8 128 in
  let before = Memory.allocated_bytes m in
  check bool "allocated something" true (before > 0);
  Memory.reset m;
  check int "reset frees everything" 0 (Memory.allocated_bytes m)

let test_memory_alignment () =
  let m = Memory.create Abi.x86_64 in
  let _ = Memory.alloc m ~align:1 3 in
  let a = Memory.alloc m ~align:8 16 in
  check int "aligned allocation" 0 (a mod 8)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "machine"
    [ ( "endian",
        [ Alcotest.test_case "known byte patterns" `Quick test_endian_known_patterns
        ; Alcotest.test_case "signed readback" `Quick test_endian_signed_readback
        ; Alcotest.test_case "floats" `Quick test_endian_floats
        ; Alcotest.test_case "swap in place" `Quick test_endian_swap
        ; Alcotest.test_case "bounds checks" `Quick test_endian_bounds
        ; Alcotest.test_case "swap_blit" `Quick test_endian_swap_blit
        ; Alcotest.test_case "no allocation" `Quick test_endian_no_allocation ]
        @ qsuite
            [ prop_endian_roundtrip; prop_endian_signed_roundtrip
            ; prop_endian_convert ] )
    ; ( "abi",
        [ Alcotest.test_case "primitive sizes" `Quick test_abi_sizes
        ; Alcotest.test_case "fingerprints" `Quick test_abi_fingerprints
        ; Alcotest.test_case "fingerprint rejects junk" `Quick
            test_abi_fingerprint_rejects_junk
        ; Alcotest.test_case "layout equality" `Quick test_abi_layout_equal ] )
    ; ( "layout",
        [ Alcotest.test_case "char+int" `Quick test_layout_char_int
        ; Alcotest.test_case "double alignment differs by ABI" `Quick
            test_layout_double_alignment_differs
        ; Alcotest.test_case "trailing padding" `Quick test_layout_trailing_padding
        ; Alcotest.test_case "fixed arrays" `Quick test_layout_fixed_array
        ; Alcotest.test_case "pointer fields" `Quick test_layout_pointer_field
        ; Alcotest.test_case "nested structs" `Quick test_layout_nested_struct
        ; Alcotest.test_case "duplicate fields rejected" `Quick
            test_layout_duplicate_field_rejected
        ; Alcotest.test_case "bad array bound rejected" `Quick
            test_layout_bad_bound_rejected ]
        @ qsuite [ prop_layout_invariants ] )
    ; ( "memory",
        [ Alcotest.test_case "alloc and typed access" `Quick test_memory_alloc_and_rw
        ; Alcotest.test_case "zero initialised" `Quick test_memory_zero_initialised
        ; Alcotest.test_case "C strings" `Quick test_memory_cstring
        ; Alcotest.test_case "pointers" `Quick test_memory_pointers
        ; Alcotest.test_case "faults" `Quick test_memory_faults
        ; Alcotest.test_case "bulk float arrays" `Quick test_memory_floats
        ; Alcotest.test_case "arena growth" `Quick test_memory_growth
        ; Alcotest.test_case "reset" `Quick test_memory_reset
        ; Alcotest.test_case "aligned alloc" `Quick test_memory_alignment ] ) ]
