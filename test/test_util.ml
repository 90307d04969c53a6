(** Tests for the utility modules: hexdump, the deterministic PRNG and
    the SHA-256/HMAC primitives. *)

module Hexdump = Omf_util.Hexdump
module Prng = Omf_util.Prng
module Sha256 = Omf_util.Sha256

let check = Alcotest.check
let str = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

let test_hexdump_short () =
  check str "empty" "" (Hexdump.short Bytes.empty);
  check str "bytes" "00ff10" (Hexdump.short (Bytes.of_string "\x00\xff\x10"))

let test_hexdump_canonical () =
  let dump = Hexdump.of_bytes (Bytes.of_string "Hello, world!\x00\x01\x02\x03") in
  check bool "offset column" true (String.length dump > 0 && String.sub dump 0 8 = "00000000");
  check bool "ascii gutter shows printables" true
    (let rec contains i =
       i + 5 <= String.length dump
       && (String.sub dump i 5 = "Hello" || contains (i + 1))
     in
     contains 0);
  check bool "non-printables dotted" true (String.contains dump '.');
  (* 17 bytes -> two lines *)
  check int "line count" 2
    (List.length (List.filter (fun s -> s <> "") (String.split_on_char '\n' dump)))

let test_hexdump_alignment () =
  (* every full line has the same width *)
  let dump = Hexdump.of_bytes (Bytes.init 64 (fun i -> Char.chr i)) in
  let lines = List.filter (fun s -> s <> "") (String.split_on_char '\n' dump) in
  let widths = List.map String.length lines in
  check bool "uniform line width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L () in
  let b = Prng.create ~seed:7L () in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  check bool "same seed, same stream" true (xs = ys);
  let c = Prng.create ~seed:8L () in
  let zs = List.init 100 (fun _ -> Prng.int c 1000) in
  check bool "different seed, different stream" true (xs <> zs)

let test_prng_ranges () =
  let r = Prng.create () in
  for _ = 1 to 1000 do
    let v = Prng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of range: %d" v;
    let f = Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_strings () =
  let r = Prng.create () in
  let s = Prng.string r 20 in
  check int "length" 20 (String.length s);
  check bool "printable" true
    (String.for_all (fun c -> c >= ' ' && c <= '~') s);
  let id = Prng.ident r 12 in
  check bool "identifier shape" true
    (id.[0] >= 'a' && id.[0] <= 'z'
    && String.for_all
         (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
         id)

let test_prng_zero_seed_is_usable () =
  let r = Prng.create ~seed:0L () in
  (* xorshift with state 0 would be stuck at 0 forever; the constructor
     must avoid that *)
  let distinct = List.sort_uniq compare (List.init 10 (fun _ -> Prng.int r 1000000)) in
  check bool "not stuck" true (List.length distinct > 1)

let test_prng_distribution_rough () =
  let r = Prng.create () in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let v = Prng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < n / 20 || c > n / 5 then
        Alcotest.failf "bucket %d wildly off: %d/%d" i c n)
    buckets

(* FIPS 180-4 / NIST CAVP and RFC 4231 vectors *)
let test_sha256_vectors () =
  check str "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex (Sha256.digest ""));
  check str "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex (Sha256.digest "abc"));
  check str "448-bit two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex
       (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check str "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.digest (String.make 1_000_000 'a')))

let test_sha256_incremental_matches_oneshot () =
  let r = Prng.create ~seed:99L () in
  for _ = 1 to 50 do
    let s = Prng.string r (Prng.int r 300) in
    let c = Sha256.init () in
    (* feed in ragged pieces *)
    let off = ref 0 in
    while !off < String.length s do
      let n = min (1 + Prng.int r 17) (String.length s - !off) in
      Sha256.feed c (String.sub s !off n);
      off := !off + n
    done;
    check str "ragged = one-shot" (Sha256.hex (Sha256.digest s))
      (Sha256.hex (Sha256.finish c))
  done

let test_hmac_vectors () =
  (* RFC 4231 test case 1 *)
  check str "rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hex (Sha256.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  (* RFC 4231 test case 2: key and data shorter than the block *)
  check str "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"));
  (* RFC 4231 test case 6: key longer than the block (hashed first) *)
  check str "rfc4231 tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.hex
       (Sha256.hmac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_constant_time_equal () =
  check bool "equal" true (Sha256.equal_constant_time "abcd" "abcd");
  check bool "different content" false (Sha256.equal_constant_time "abcd" "abce");
  check bool "different length" false (Sha256.equal_constant_time "abc" "abcd")

let test_prometheus_labels () =
  let text =
    Omf_util.Counters.prometheus ~component:"relay"
      [ ("events_relayed", 42)
      ; ("stream.flights.queue_depth", 7)
      ; ("mirror.EU/ops:alerts.lag_frames", 3)
      ; ("store.a.b.tail", 9)
      ; ("g.su\"bj.m", 1)
      ; ("weird.name", 5) ]
  in
  let has line =
    List.mem line (String.split_on_char '\n' text)
  in
  check bool "plain counter" true (has "omf_relay_events_relayed 42");
  check bool "per-stream gauge gets a label" true
    (has "omf_relay_stream_queue_depth{stream=\"flights\"} 7");
  check bool "subject keeps punctuation verbatim" true
    (has "omf_relay_mirror_lag_frames{stream=\"EU/ops:alerts\"} 3");
  (* the subject is everything between the first and last dot, so it
     may itself contain dots *)
  check bool "dotted subject" true
    (has "omf_relay_store_tail{stream=\"a.b\"} 9");
  check bool "quotes in the subject are escaped" true
    (has "omf_relay_g_m{stream=\"su\\\"bj\"} 1");
  (* a single-dot name has no <group>.<subject>.<metric> shape: it
     renders as a plain sanitised metric, no label *)
  check bool "single-dot name stays plain" true (has "omf_relay_weird_name 5")

let test_histogram_observe () =
  let c = Omf_util.Counters.create () in
  (* samples straddling the 50 / 100 / 250 default bounds *)
  List.iter (Omf_util.Counters.observe c "admit_us") [ 10; 50; 70; 200; 2_000_000 ];
  let get = Omf_util.Counters.get c in
  (* cumulative buckets: le_50 counts 10 and 50, le_100 adds 70, ... *)
  check int "le 50" 2 (get "hist.admit_us.le_000000050");
  check int "le 100" 3 (get "hist.admit_us.le_000000100");
  check int "le 250" 4 (get "hist.admit_us.le_000000250");
  check int "le 1000000" 4 (get "hist.admit_us.le_001000000");
  check int "le inf" 5 (get "hist.admit_us.le_inf");
  check int "count" 5 (get "hist.admit_us.count");
  check int "sum" 2_000_330 (get "hist.admit_us.sum");
  (* bucket keys are zero-padded so the sorted dump is in bound order *)
  let bucket_keys =
    List.filter_map
      (fun (k, _) ->
        if
          String.length k > 19
          && String.sub k 0 19 = "hist.admit_us.le_00"
        then Some k
        else None)
      (Omf_util.Counters.dump c)
  in
  check bool "alphabetical = numeric bucket order" true
    (bucket_keys = List.sort compare bucket_keys
    && List.length bucket_keys = List.length Omf_util.Counters.default_bounds);
  (* histograms merge bucket-wise across shards like any counter *)
  let c2 = Omf_util.Counters.create () in
  Omf_util.Counters.observe c2 "admit_us" 60;
  let merged = Omf_util.Counters.merged [ c; c2 ] in
  check int "merged le 100" 4 (List.assoc "hist.admit_us.le_000000100" merged);
  check int "merged count" 6 (List.assoc "hist.admit_us.count" merged)

let test_histogram_prometheus () =
  let c = Omf_util.Counters.create () in
  List.iter (Omf_util.Counters.observe c "admit_us") [ 10; 9_999_999 ];
  let text = Omf_util.Counters.prometheus ~component:"relay" (Omf_util.Counters.dump c) in
  let has line = List.mem line (String.split_on_char '\n' text) in
  check bool "bucket with le label (padding stripped)" true
    (has "omf_relay_admit_us_bucket{le=\"50\"} 1");
  check bool "higher cumulative bucket" true
    (has "omf_relay_admit_us_bucket{le=\"1000000\"} 1");
  check bool "+Inf overflow bucket" true
    (has "omf_relay_admit_us_bucket{le=\"+Inf\"} 2");
  check bool "sum" true (has "omf_relay_admit_us_sum 10000009");
  check bool "count" true (has "omf_relay_admit_us_count 2")

let test_token_bucket () =
  let module Tb = Omf_util.Token_bucket in
  let b = Tb.create ~rate:10.0 ~burst:5.0 ~now:100.0 in
  (* the burst allowance goes first *)
  for _ = 1 to 5 do
    Tb.take b ~now:100.0 1.0
  done;
  check bool "burst exhausted but not in debt" true (Tb.ready b ~now:100.0);
  Tb.take b ~now:100.0 1.0;
  check bool "in debt" false (Tb.ready b ~now:100.0);
  (* one token of debt at 10/s refills in 0.1s *)
  check bool "delay ~0.1s" true (abs_float (Tb.delay b ~now:100.0 -. 0.1) < 1e-9);
  check bool "ready after the refill" true (Tb.ready b ~now:100.11);
  (* tokens cap at burst no matter how long the idle gap *)
  check bool "capped at burst" true (Tb.tokens b ~now:1000.0 <= 5.0 +. 1e-9);
  (* a clock that jumps backwards must not mint tokens or go negative *)
  Tb.take b ~now:1000.0 5.0;
  let before = Tb.tokens b ~now:1000.0 in
  check bool "monotonic guard" true (Tb.tokens b ~now:500.0 >= before -. 1e-9);
  (* rate <= 0 = unlimited *)
  let u = Tb.create ~rate:0.0 ~burst:1.0 ~now:0.0 in
  for _ = 1 to 1000 do
    Tb.take u ~now:0.0 1.0
  done;
  check bool "unlimited never throttles" true (Tb.ready u ~now:0.0)

(* index of the first occurrence of [sub] in [s], if any *)
let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.equal (String.sub s i n) sub then Some i
    else go (i + 1)
  in
  go 0

let test_slice_bounds () =
  let module Slice = Omf_util.Slice in
  let b = Bytes.of_string "abcdefgh" in
  check str "window view" "cde" (Slice.to_string (Slice.of_bytes ~off:2 ~len:3 b));
  check str "sub view" "de"
    (Slice.to_string (Slice.sub (Slice.of_bytes ~off:2 ~len:3 b) 1 2));
  let expect_invalid name want f =
    match f () with
    | (_ : Slice.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument m ->
      if not (Omf_testkit.Strings.contains m want) then
        Alcotest.failf "%s: message %S does not name the window (%S)" name m
          want
  in
  expect_invalid "of_bytes past end" "[4,9) escapes buffer of 8" (fun () ->
      Slice.of_bytes ~off:4 ~len:5 b);
  expect_invalid "of_bytes negative off" "[-1," (fun () ->
      Slice.of_bytes ~off:(-1) b);
  expect_invalid "of_bytes negative len" "escapes buffer of 8" (fun () ->
      Slice.of_bytes ~len:(-2) b);
  expect_invalid "sub escapes view" "[2,4) escapes slice of 3" (fun () ->
      Slice.sub (Slice.of_bytes ~off:2 ~len:3 b) 2 2);
  expect_invalid "sub negative off" "[-1,0) escapes slice of 3" (fun () ->
      Slice.sub (Slice.of_bytes ~off:2 ~len:3 b) (-1) 1);
  expect_invalid "make out of bounds" "[0,9) escapes buffer of 8" (fun () ->
      Slice.make b 0 9)

(** A one-shot push-gateway: accept one connection, read the request,
    answer 200, and hand the request text back. *)
let mini_gateway () =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let seen = ref "" in
  let th =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept srv in
        let buf = Bytes.create 65536 in
        let body_complete req =
          match find_sub req "\r\n\r\n" with
          | None -> false
          | Some i ->
            let cl =
              match find_sub req "Content-Length: " with
              | None -> 0
              | Some j ->
                let rest = String.sub req (j + 16) (String.length req - j - 16) in
                int_of_string (String.sub rest 0 (String.index rest '\r'))
            in
            String.length req >= i + 4 + cl
        in
        let rec read_req acc =
          if body_complete acc then acc
          else
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> acc
            | n -> read_req (acc ^ Bytes.sub_string buf 0 n)
        in
        seen := read_req "";
        let resp = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n" in
        ignore (Unix.write_substring fd resp 0 (String.length resp));
        Unix.close fd;
        Unix.close srv)
      ()
  in
  (port, seen, th)

let test_counters_push () =
  let module C = Omf_util.Counters in
  let port, seen, th = mini_gateway () in
  let url = Printf.sprintf "http://127.0.0.1:%d/metrics/job/test" port in
  (match C.push ~url [ ("loadgen", [ ("frames", 42) ]) ] with
  | Ok () -> ()
  | Error m -> Alcotest.failf "push failed: %s" m);
  Thread.join th;
  check bool "POSTs the given path" true
    (Omf_testkit.Strings.contains !seen "POST /metrics/job/test HTTP/1.1");
  check bool "body is prometheus text" true
    (Omf_testkit.Strings.contains !seen "omf_loadgen_frames 42");
  (* failures are returned, never raised *)
  (match C.push ~timeout_s:0.2 ~url:"http://127.0.0.1:1/x" [] with
  | Ok () -> Alcotest.fail "push to a closed port succeeded"
  | Error m -> check bool "error mentions push" true
      (Omf_testkit.Strings.contains m "push"));
  match C.push ~url:"ftp://nope" [] with
  | Ok () -> Alcotest.fail "bad scheme accepted"
  | Error m ->
    check bool "bad scheme named" true
      (Omf_testkit.Strings.contains m "unsupported url")

let test_strings_replace () =
  check str "basic" "a-Y-c" (Omf_testkit.Strings.replace ~sub:"b" ~by:"Y" "a-b-c");
  check str "multiple" "xx" (Omf_testkit.Strings.replace ~sub:"ab" ~by:"x" "abab");
  check str "absent" "hello" (Omf_testkit.Strings.replace ~sub:"zz" ~by:"x" "hello");
  check str "longer replacement" "aXXXb"
    (Omf_testkit.Strings.replace ~sub:"-" ~by:"XXX" "a-b")

let () =
  Alcotest.run "util"
    [ ( "hexdump",
        [ Alcotest.test_case "short form" `Quick test_hexdump_short
        ; Alcotest.test_case "canonical form" `Quick test_hexdump_canonical
        ; Alcotest.test_case "alignment" `Quick test_hexdump_alignment ] )
    ; ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic
        ; Alcotest.test_case "ranges" `Quick test_prng_ranges
        ; Alcotest.test_case "strings" `Quick test_prng_strings
        ; Alcotest.test_case "zero seed" `Quick test_prng_zero_seed_is_usable
        ; Alcotest.test_case "rough uniformity" `Quick
            test_prng_distribution_rough ] )
    ; ( "sha256",
        [ Alcotest.test_case "digest vectors" `Quick test_sha256_vectors
        ; Alcotest.test_case "incremental feed" `Quick
            test_sha256_incremental_matches_oneshot
        ; Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors
        ; Alcotest.test_case "constant-time compare" `Quick
            test_constant_time_equal ] )
    ; ( "counters",
        [ Alcotest.test_case "prometheus per-stream labels" `Quick
            test_prometheus_labels
        ; Alcotest.test_case "histogram observe/merge" `Quick
            test_histogram_observe
        ; Alcotest.test_case "histogram prometheus rendering" `Quick
            test_histogram_prometheus ] )
    ; ( "token-bucket",
        [ Alcotest.test_case "refill, debt, monotonic clock" `Quick
            test_token_bucket ] )
    ; ( "slice",
        [ Alcotest.test_case "bounds checks name the window" `Quick
            test_slice_bounds ] )
    ; ( "push",
        [ Alcotest.test_case "one-shot POST to a gateway" `Quick
            test_counters_push ] )
    ; ( "strings",
        [ Alcotest.test_case "replace" `Quick test_strings_replace ] ) ]
