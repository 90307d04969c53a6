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

module Decode = Omf_util.Decode

(* the block is refused with an LZ decode error of one of [reasons] *)
let expect_error what reasons blk =
  match Compress.decompress blk with
  | exception Decode.Error { layer = "lz"; reason; _ } when List.mem reason reasons -> ()
  | _ -> Alcotest.failf "%s: decoder accepted a malformed block" what

let test_malformed () =
  expect_error "empty input" [ Truncated ] Bytes.empty;
  expect_error "bad tag" [ Bad_tag ] (Bytes.of_string "\x07abc");
  expect_error "truncated header" [ Truncated ] (Bytes.of_string "\x01\x00\x00");
  (* valid block, then flip the distance past the output start *)
  let raw = Bytes.of_string (String.concat "" (List.init 64 (fun _ -> "abcd"))) in
  let blk = Compress.compress raw in
  Alcotest.(check bool) "fixture compresses" true (Compress.is_lz blk);
  let evil = Bytes.copy blk in
  (* grow the declared output so the token stream under-fills it *)
  Bytes.set evil 4 (Char.chr (Char.code (Bytes.get evil 4) lxor 0x40));
  expect_error "length mismatch" [ Inconsistent ] evil;
  let short = Bytes.sub blk 0 (Bytes.length blk - 3) in
  expect_error "truncated stream" [ Truncated; Inconsistent ] short

(* A header claiming far more output than its token stream can expand
   to is refused before the output is allocated: one run byte adds at
   most 255 to a length, so [n] token bytes decode to at most 255n. *)
let test_forged_length () =
  let forged raw_len tokens =
    let b = Bytes.make (5 + String.length tokens) '\x01' in
    Bytes.set_int32_be b 1 (Int32.of_int raw_len);
    Bytes.blit_string tokens 0 b 5 (String.length tokens);
    b
  in
  let giant = forged 0x3FFF_FFFF "\x00" in
  expect_error "1 GiB from one token byte" [ Too_long ] giant;
  let b =
    Omf_testkit.Alloc.bytes_per_call (fun () ->
        match Compress.decompress giant with
        | exception Decode.Error _ -> ()
        | _ -> Alcotest.fail "forged block accepted")
  in
  if b > 1024.0 then
    Alcotest.failf "rejecting a forged block allocates %.0f B (budget 1024)" b

(* [decompress_sub ~into] decodes into the caller's buffer and returns
   it, for stored and lz blocks alike; a forged length is refused
   before [into] is asked for a buffer *)
let test_decode_into () =
  let raw = Bytes.of_string (String.concat "" (List.init 64 (fun _ -> "abcd"))) in
  List.iter
    (fun (what, blk) ->
      let mine = Bytes.create (Bytes.length raw) in
      let out =
        Compress.decompress_sub blk ~pos:0 ~len:(Bytes.length blk)
          ~into:(fun n ->
            Alcotest.(check int) (what ^ ": asked for the raw length")
              (Bytes.length raw) n;
            mine)
      in
      Alcotest.(check bool) (what ^ ": decoded into the caller's buffer") true
        (out == mine);
      Alcotest.check bytes_testable (what ^ ": contents") raw out)
    [ ("lz", Compress.compress raw)
    ; ("stored", Bytes.cat (Bytes.make 1 '\x00') raw) ];
  let giant = Bytes.make 6 '\x00' in
  Bytes.set giant 0 '\x01';
  Bytes.set_int32_be giant 1 0x3FFF_FFFFl;
  let asked = ref false in
  (match
     Compress.decompress_sub giant ~pos:0 ~len:6 ~into:(fun n ->
         asked := true;
         Bytes.create n)
   with
  | exception Decode.Error { reason = Too_long; _ } -> ()
  | _ -> Alcotest.fail "forged block accepted");
  Alcotest.(check bool) "forged length refused before into runs" false !asked

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
      let got = Compress.decompress (Compress.compress_slice s) in
      Bytes.equal (Bytes.sub raw off len) got)

(* the secure-compressed workload's message as the block goldens were
   captured over it: its NDR payload behind the first layout's 24-byte
   header ({!Omf_testkit.Wire_v1}) *)
let secure_message () =
  let shape = List.nth Omf_testkit.Shapes.bench 3 in
  let abi = shape.Omf_testkit.Shapes.send_abi in
  let fmt = Omf_testkit.Shapes.register abi shape in
  let mem = Omf_machine.Memory.create abi in
  Omf_testkit.Wire_v1.message fmt
    (Omf_pbio.Encode.payload mem fmt
       (Omf_pbio.Native.store mem fmt shape.Omf_testkit.Shapes.value))

(* [n] bytes of a few repeated words broken by random runs *)
let mixed ~seed n =
  let rng = Random.State.make [| seed |] in
  let words = [| "flight"; "gate"; "runway"; "ATL"; "holding" |] in
  let b = Buffer.create n in
  while Buffer.length b < n do
    if Random.State.int rng 4 = 0 then
      for _ = 1 to 1 + Random.State.int rng 24 do
        Buffer.add_char b (Char.chr (Random.State.int rng 256))
      done
    else Buffer.add_string b words.(Random.State.int rng 5)
  done;
  Bytes.of_string (Buffer.sub b 0 n)

(* 70 KiB, longer than the match window: 4 KiB of random bytes recur
   64 000 bytes later, so a match reaches nearly the whole window back
   while positions past 64 KiB reuse chain slots *)
let wide () =
  let st = Random.State.make [| 70 |] in
  let r = Bytes.init 4096 (fun _ -> Char.chr (Random.State.int st 256)) in
  Bytes.concat Bytes.empty [ r; mixed ~seed:1 59904; r; mixed ~seed:2 3584 ]

(* Encoded blocks of fixed inputs, captured before the match finder's
   hash was rewritten (and [wide] before the chain ring was sized to the
   block): the wire format and the encoder's choices must not move.
   [zeros] is checked in full, the rest by length and MD5. *)
let golden_inputs () =
  [ ("secure-compressed message", secure_message (), 151,
     "487c2d5e1147b4cf47edf738add54145")
  ; ( "counting"
    , Bytes.init 4096 (fun i -> Char.chr (((i * 7) + (i / 13)) land 0xff))
    , 550, "713f6ec03305749c88f24a12cbfd2fe4" )
  ; ("zeros", Bytes.make 2000 '\000', 17, "a0374115e9f8336d183e3280ffe5050e")
  ; ("mixed", mixed ~seed:42 8192, 5002, "37b150ff69af459d5895d59fbbf1ebb1")
  ; ("wide", wide (), 42346, "d06ba264e727f733ce73060e542fa24d") ]

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

(* One scratch reused across blocks whose sizes cross the ring's growth
   points up and down gives the blocks a call without one gives, and the
   goldens where there are some. *)
let test_growth () =
  let golden = golden_inputs () in
  let find what = List.find (fun (w, _, _, _) -> w = what) golden in
  let raw what = let _, r, _, _ = find what in r in
  let gold what = let w, r, _, md5 = find what in (w, r, Some md5) in
  let sized what raw = (what, raw, None) in
  let scratch = Compress.scratch () in
  List.iter
    (fun (what, raw, md5) ->
      let blk = Compress.compress ~scratch raw in
      Alcotest.check bytes_testable
        (Printf.sprintf "%s (%d B): same block as without a scratch" what
           (Bytes.length raw))
        (Compress.compress raw) blk;
      Option.iter
        (fun m ->
          Alcotest.(check string) (what ^ ": golden MD5") m
            (Digest.to_hex (Digest.bytes blk)))
        md5)
    [ sized "17 B" (Bytes.of_string "abcdabcdabcdabcda")
    ; sized "100 B" (Bytes.sub (raw "counting") 0 100)
    ; sized "secure frame"
        (Bytes.cat (Bytes.make 1 'M') (raw "secure-compressed message"))
    ; gold "secure-compressed message"
    ; gold "mixed"
    ; gold "wide"
    ; sized "2 KiB" (Bytes.sub (raw "mixed") 0 2048)
    ; gold "zeros"
    ; gold "counting" ]

let gen_size_run =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (frequency
         [ (6, gen_payload)
         ; ( 1,
             map
               (fun (seed, n) -> mixed ~seed n)
               (pair int (int_range 60_000 80_000)) ) ]))

let prop_reused_scratch =
  QCheck.Test.make ~name:"reused scratch = fresh scratch (random size runs)"
    ~count:60
    (QCheck.make
       ~print:(fun l ->
         String.concat "," (List.map (fun b -> string_of_int (Bytes.length b)) l))
       gen_size_run)
    (fun raws ->
      let scratch = Compress.scratch () in
      List.for_all
        (fun raw ->
          Bytes.equal
            (Compress.compress ~scratch raw)
            (Compress.compress ~scratch:(Compress.scratch ()) raw))
        raws)

(* A scratch holds what the blocks it compressed need: nothing fresh,
   and after the ~1.1 KiB secure frame the head table, a 2048-slot
   ring and the out buffer. Lower these budgets, never raise them. *)
let test_footprint () =
  let words s = Obj.reachable_words (Obj.repr s) in
  let scratch = Compress.scratch () in
  let fresh = words scratch in
  if fresh > 32 then
    Alcotest.failf "a fresh scratch holds %d words (budget 32)" fresh;
  let frame = Bytes.cat (Bytes.make 1 'M') (secure_message ()) in
  ignore (Compress.compress ~scratch frame);
  let budget =
    (16_384 + 1) + (2048 + 1)
    + (1 + ((Compress.bound (Bytes.length frame) + 8) / 8))
    + 32
  in
  let used = words scratch in
  if used > budget then
    Alcotest.failf "after a %d B frame a scratch holds %d words (budget %d)"
      (Bytes.length frame) used budget

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
        ; Alcotest.test_case "malformed blocks rejected" `Quick test_malformed
        ; Alcotest.test_case "forged length rejected unallocated" `Quick
            test_forged_length
        ; Alcotest.test_case "decode into a caller buffer" `Quick test_decode_into
        ; Alcotest.test_case "golden blocks" `Quick test_golden
        ; Alcotest.test_case "allocation per frame" `Quick test_allocation
        ; Alcotest.test_case "reused scratch across ring growth" `Quick
            test_growth
        ; Alcotest.test_case "scratch footprint" `Quick test_footprint ]
        @ qsuite [ prop_roundtrip; prop_slice_roundtrip; prop_reused_scratch ]
      ) ]
