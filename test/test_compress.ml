(* lib/compress — LZ block codec round-trips, adversarial inputs, and
   decoder hardening (doc/COMPRESS.md). *)

module Slice = Omf_util.Slice
module Compress = Omf_compress.Compress

let bytes_testable =
  Alcotest.testable
    (fun fmt b -> Fmt.pf fmt "%d bytes" (Bytes.length b))
    Bytes.equal

let roundtrip what raw =
  let blk = Compress.compress raw in
  Alcotest.(check bool)
    (what ^ ": within bound")
    true
    (Bytes.length blk <= Compress.bound (Bytes.length raw));
  Alcotest.check bytes_testable (what ^ ": round-trip") raw
    (Compress.decompress blk)

let test_empty () =
  roundtrip "empty" Bytes.empty;
  Alcotest.(check int) "empty block is one byte" 1
    (Bytes.length (Compress.compress Bytes.empty))

let test_all_zero () =
  let raw = Bytes.make 65536 '\000' in
  let blk = Compress.compress raw in
  roundtrip "zeros" raw;
  Alcotest.(check bool) "zeros use the lz form" true (Compress.is_lz blk);
  Alcotest.(check bool)
    (Printf.sprintf "zeros shrink >100x (got %d)" (Bytes.length blk))
    true
    (Bytes.length blk * 100 < Bytes.length raw)

let test_structured () =
  (* paper-struct flavour: repeated field names, varying numbers *)
  let b = Buffer.create 4096 in
  for i = 0 to 499 do
    Buffer.add_string b
      (Printf.sprintf "<event><ts>%d</ts><host>node-%d</host><val>%f</val></event>"
         (1_000_000 + i) (i mod 7) (float_of_int i *. 0.25))
  done;
  let raw = Buffer.to_bytes b in
  let blk = Compress.compress raw in
  roundtrip "structured" raw;
  Alcotest.(check bool)
    (Printf.sprintf "structured shrinks >=2x (%d -> %d)" (Bytes.length raw)
       (Bytes.length blk))
    true
    (Bytes.length blk * 2 <= Bytes.length raw)

let test_incompressible () =
  let st = Random.State.make [| 0xC0FFEE |] in
  let raw =
    Bytes.init 8192 (fun _ -> Char.chr (Random.State.int st 256))
  in
  let blk = Compress.compress raw in
  roundtrip "random" raw;
  (* stored passthrough: worst case is exactly one byte of framing *)
  Alcotest.(check int) "random costs exactly 1 byte" (Bytes.length raw + 1)
    (Bytes.length blk)

let test_ragged_slices () =
  let backing = Bytes.make 1000 'x' in
  for i = 0 to 999 do
    Bytes.set backing i (Char.chr ((i * 7) mod 251))
  done;
  List.iter
    (fun (off, len) ->
      let s = Slice.make backing off len in
      let blk = Compress.compress_slice s in
      let got = Compress.decompress blk in
      Alcotest.check bytes_testable
        (Printf.sprintf "slice %d+%d" off len)
        (Bytes.sub backing off len) got)
    [ (0, 1000); (1, 999); (13, 100); (999, 1); (500, 0); (3, 997) ]

let test_slices_gather () =
  let a = Slice.of_string "header|" in
  let b = Slice.of_string (String.concat "," (List.init 200 string_of_int)) in
  let c = Slice.of_string "|footer" in
  let blk = Compress.compress_slices [ a; b; c ] in
  let want = Slice.concat [ a; b; c ] in
  Alcotest.check bytes_testable "gathered round-trip" want
    (Compress.decompress blk)

let expect_error what blk =
  match Compress.decompress blk with
  | exception Compress.Error _ -> ()
  | _ -> Alcotest.failf "%s: decoder accepted a malformed block" what

let test_malformed () =
  expect_error "empty input" Bytes.empty;
  expect_error "bad tag" (Bytes.of_string "\x07abc");
  expect_error "truncated header" (Bytes.of_string "\x01\x00\x00");
  (* valid block, then flip the distance past the output start *)
  let raw = Bytes.of_string (String.concat "" (List.init 64 (fun _ -> "abcd"))) in
  let blk = Compress.compress raw in
  Alcotest.(check bool) "fixture compresses" true (Compress.is_lz blk);
  let evil = Bytes.copy blk in
  (* grow the declared output so the token stream under-fills it *)
  Bytes.set evil 4 (Char.chr (Char.code (Bytes.get evil 4) lxor 0x40));
  expect_error "length mismatch" evil;
  let short = Bytes.sub blk 0 (Bytes.length blk - 3) in
  expect_error "truncated stream" short

let gen_payload =
  (* mix of compressible and adversarial shapes *)
  QCheck.Gen.(
    frequency
      [ (3, map Bytes.of_string (string_size (int_bound 2000)))
      ; ( 2,
          map2
            (fun c n -> Bytes.make n c)
            (map Char.chr (int_bound 255))
            (int_bound 5000) )
      ; ( 2,
          map2
            (fun pat n ->
              let b = Buffer.create (n * String.length pat) in
              for _ = 1 to n do
                Buffer.add_string b pat
              done;
              Buffer.to_bytes b)
            (string_size ~gen:printable (int_range 1 40))
            (int_bound 300) )
      ; ( 2,
          map
            (fun n ->
              let st = Random.State.make [| n |] in
              Bytes.init n (fun _ -> Char.chr (Random.State.int st 256)))
            (int_bound 4000) ) ])

let prop_roundtrip =
  QCheck.Test.make ~name:"lz round-trip (arbitrary payloads)" ~count:300
    (QCheck.make gen_payload)
    (fun raw ->
      let blk = Compress.compress raw in
      Bytes.length blk <= Compress.bound (Bytes.length raw)
      && Bytes.equal raw (Compress.decompress blk))

let prop_slice_roundtrip =
  QCheck.Test.make ~name:"lz round-trip (ragged slice windows)" ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_payload (pair (int_bound 50) (int_bound 50)))
    )
    (fun (raw, (skew_l, skew_r)) ->
      let n = Bytes.length raw in
      let off = min skew_l n in
      let len = max 0 (n - off - min skew_r (n - off)) in
      let s = Slice.make raw off len in
      let got = Compress.decompress_slice (Slice.of_bytes (Compress.compress_slice s)) in
      Bytes.equal (Bytes.sub raw off len) got)

(* Encoded blocks of fixed inputs, captured before the match finder's
   hash was rewritten: the wire format and the encoder's choices must not
   move. [zeros] is checked in full, the rest by length and MD5. *)
let golden_inputs () =
  let shape = List.nth Omf_testkit.Shapes.bench 3 in
  let abi = shape.Omf_testkit.Shapes.send_abi in
  let fmt = Omf_testkit.Shapes.register abi shape in
  let mem = Omf_machine.Memory.create abi in
  let msg =
    Omf_pbio.Pbio.message mem fmt
      (Omf_pbio.Native.store mem fmt shape.Omf_testkit.Shapes.value)
  in
  let mixed =
    let rng = Random.State.make [| 42 |] in
    let words = [| "flight"; "gate"; "runway"; "ATL"; "holding" |] in
    let b = Buffer.create 8192 in
    while Buffer.length b < 8192 do
      if Random.State.int rng 4 = 0 then
        for _ = 1 to 1 + Random.State.int rng 24 do
          Buffer.add_char b (Char.chr (Random.State.int rng 256))
        done
      else Buffer.add_string b words.(Random.State.int rng 5)
    done;
    Bytes.of_string (Buffer.sub b 0 8192)
  in
  [ ("secure-compressed message", msg, 151, "487c2d5e1147b4cf47edf738add54145")
  ; ( "counting"
    , Bytes.init 4096 (fun i -> Char.chr (((i * 7) + (i / 13)) land 0xff))
    , 550, "713f6ec03305749c88f24a12cbfd2fe4" )
  ; ("zeros", Bytes.make 2000 '\000', 17, "a0374115e9f8336d183e3280ffe5050e")
  ; ("mixed", mixed, 5002, "37b150ff69af459d5895d59fbbf1ebb1") ]

let test_golden () =
  List.iter
    (fun (what, raw, len, md5) ->
      let blk = Compress.compress raw in
      Alcotest.(check int) (what ^ ": block length") len (Bytes.length blk);
      Alcotest.(check string) (what ^ ": block MD5") md5
        (Digest.to_hex (Digest.bytes blk));
      roundtrip what raw)
    (golden_inputs ());
  Alcotest.(check string) "zeros: block bytes"
    "01000007d01f000001ffffffffffffffc3"
    (Bytes.fold_left
       (fun acc c -> acc ^ Printf.sprintf "%02x" (Char.code c))
       ""
       (Compress.compress (Bytes.make 2000 '\000')))

(* with a reused scratch, compressing a frame allocates its output block
   and nothing else: the block is built in the scratch's buffer *)
let test_allocation () =
  let _, raw, _, _ = List.hd (golden_inputs ()) in
  let scratch = Compress.scratch () in
  let b =
    Omf_testkit.Alloc.bytes_per_call (fun () -> Compress.compress ~scratch raw)
  in
  if b > 256.0 then
    Alcotest.failf "compressing %d B allocates %.0f B per call (budget 256)"
      (Bytes.length raw) b

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "compress"
    [ ( "codec",
        [ Alcotest.test_case "empty" `Quick test_empty
        ; Alcotest.test_case "all-zero" `Quick test_all_zero
        ; Alcotest.test_case "structured >=2x" `Quick test_structured
        ; Alcotest.test_case "incompressible passthrough" `Quick
            test_incompressible
        ; Alcotest.test_case "ragged slice offsets" `Quick test_ragged_slices
        ; Alcotest.test_case "gathered wire message" `Quick test_slices_gather
        ; Alcotest.test_case "malformed blocks rejected" `Quick test_malformed
        ; Alcotest.test_case "golden blocks" `Quick test_golden
        ; Alcotest.test_case "allocation per frame" `Quick test_allocation ]
        @ qsuite [ prop_roundtrip; prop_slice_roundtrip ] ) ]
