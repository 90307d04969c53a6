(** Tests for the transport layer: the deterministic netsim link, at
    zero cost (the in-process loopback) and priced, the format-negotiation endpoint protocol, and real TCP. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Fx = Omf_fixtures.Paper_structs
module Decode = Omf_util.Decode

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

(* ------------------------------------------------------------------ *)
(* Loopback: netsim at zero cost                                        *)
(* ------------------------------------------------------------------ *)

let loopback () =
  let a, b, _, _ = Netsim.pair Netsim.loopback in
  (a, b)

let test_loopback_fifo () =
  let a, b, clock, _ = Netsim.pair Netsim.loopback in
  Link.send a (Bytes.of_string "one");
  Link.send a (Bytes.of_string "two");
  check Alcotest.string "fifo 1" "one" (Bytes.to_string (Link.recv_exn b));
  check Alcotest.string "fifo 2" "two" (Bytes.to_string (Link.recv_exn b));
  check bool "empty link: None" true (Link.recv b = None);
  Link.send b (Bytes.of_string "back");
  check Alcotest.string "duplex" "back" (Bytes.to_string (Link.recv_exn a));
  check (Alcotest.float 0.0) "zero cost: no virtual time" 0.0 (Netsim.now clock)

let test_loopback_close_semantics () =
  let a, b = loopback () in
  Link.send a (Bytes.of_string "last");
  Link.close a;
  check bool "queued data still readable" true
    (Link.recv b = Some (Bytes.of_string "last"));
  check bool "then end of stream" true (Link.recv b = None);
  try
    Link.send a (Bytes.of_string "x");
    Alcotest.fail "expected Closed"
  with Link.Closed -> ()

let test_loopback_isolation () =
  (* sent buffers are copied: mutating after send must not corrupt *)
  let a, b = loopback () in
  let msg = Bytes.of_string "data" in
  Link.send a msg;
  Bytes.set msg 0 'X';
  check Alcotest.string "copy on send" "data" (Bytes.to_string (Link.recv_exn b))

(* ------------------------------------------------------------------ *)
(* Netsim                                                               *)
(* ------------------------------------------------------------------ *)

let test_netsim_latency_accounting () =
  let profile =
    { Netsim.propagation_us = 100.0; per_message_us = 5.0; bytes_per_us = 10.0 }
  in
  let a, b, clock, stats = Netsim.pair profile in
  Link.send a (Bytes.make 1000 'x');
  (* sender clock advances past serialisation: 5 + 100 us *)
  check (Alcotest.float 1e-9) "sender sees serialisation time" 105.0
    (Netsim.now clock);
  ignore (Link.recv_exn b);
  (* receiver additionally waits for propagation *)
  check (Alcotest.float 1e-9) "receiver sees arrival time" 205.0
    (Netsim.now clock);
  check int "stats messages" 1 stats.Netsim.messages;
  check int "stats bytes" 1000 stats.Netsim.bytes

let test_netsim_pipelining () =
  (* two back-to-back messages share the pipe: second is delayed by the
     first's serialisation, not by its propagation *)
  let profile =
    { Netsim.propagation_us = 1000.0; per_message_us = 0.0; bytes_per_us = 1.0 }
  in
  let a, b, clock, _ = Netsim.pair profile in
  Link.send a (Bytes.make 500 'x');
  Link.send a (Bytes.make 500 'y');
  ignore (Link.recv_exn b);
  ignore (Link.recv_exn b);
  (* serialisation: 500 + 500; second arrives at 1000 + 1000 *)
  check (Alcotest.float 1e-9) "pipelined arrival" 2000.0 (Netsim.now clock)

let test_netsim_transmit_time () =
  check (Alcotest.float 1e-9) "transmit time formula" 85.0
    (Netsim.transmit_time
       { Netsim.propagation_us = 9.0; per_message_us = 5.0; bytes_per_us = 10.0 }
       800)

let prop_netsim_monotone =
  QCheck.Test.make ~name:"netsim delivery order and clock monotonicity"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 5000))
    (fun sizes ->
      let a, b, clock, stats =
        Netsim.pair
          { Netsim.propagation_us = 50.0; per_message_us = 2.0
          ; bytes_per_us = 10.0 }
      in
      List.iter (fun n -> Link.send a (Bytes.make n 'x')) sizes;
      let rec drain last times =
        match Link.recv b with
        | None -> List.rev times
        | Some msg ->
          let now = Netsim.now clock in
          if now < last then failwith "clock went backwards";
          drain now ((now, Bytes.length msg) :: times)
      in
      let times = drain 0.0 [] in
      (* all messages delivered, in order, with matching lengths *)
      List.length times = List.length sizes
      && List.for_all2 (fun (_, len) n -> len = n) times sizes
      && stats.Netsim.messages = List.length sizes
      && stats.Netsim.bytes = List.fold_left ( + ) 0 sizes)

let prop_netsim_latency_lower_bound =
  QCheck.Test.make ~name:"netsim: every delivery respects the physics"
    ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 1 100))
    (fun (size, _) ->
      let profile =
        { Netsim.propagation_us = 75.0; per_message_us = 3.0
        ; bytes_per_us = 12.5 }
      in
      let a, b, clock, _ = Netsim.pair profile in
      Link.send a (Bytes.make size 'x');
      ignore (Link.recv_exn b);
      (* arrival >= serialisation + propagation, exactly for a lone msg *)
      let expect = Netsim.transmit_time profile size +. profile.Netsim.propagation_us in
      Float.abs (Netsim.now clock -. expect) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Endpoint protocol                                                    *)
(* ------------------------------------------------------------------ *)

let endpoint_pair sender_abi receiver_abi decl =
  let sreg = Registry.create sender_abi in
  let sfmt = Registry.register sreg decl in
  let rreg = Registry.create receiver_abi in
  ignore (Registry.register rreg decl);
  let a, b = loopback () in
  let sender = Endpoint.Sender.create a (Memory.create sender_abi) in
  let receiver =
    Endpoint.Receiver.create b rreg (Memory.create receiver_abi)
  in
  (sender, sfmt, receiver)

let test_endpoint_negotiation_automatic () =
  let sender, sfmt, receiver =
    endpoint_pair Abi.x86_64 Abi.sparc_32 Fx.decl_a
  in
  Endpoint.Sender.send_value sender sfmt Fx.value_a;
  match Endpoint.Receiver.recv_value receiver with
  | Some (fmt, v) ->
    check Alcotest.string "format name" "ASDOffEvent" fmt.Format.name;
    check value_testable "field survives" (Value.String "DELTA")
      (Value.field_exn v "arln")
  | None -> Alcotest.fail "no message"

let test_endpoint_descriptor_sent_once () =
  let sender, sfmt, receiver =
    endpoint_pair Abi.x86_64 Abi.x86_64 Fx.decl_a
  in
  let count = ref 0 in
  for _ = 1 to 10 do
    Endpoint.Sender.send_value sender sfmt Fx.value_a
  done;
  (* drain: 10 data messages; exactly one descriptor frame was prepended *)
  while Option.is_some (Endpoint.Receiver.recv_value receiver) do
    incr count
  done;
  check int "ten data messages decoded" 10 !count

(* value-level endpoints keep their memories one message large: the
   sender binds each value into a scratch memory it resets, and the
   receiver resets its memory once the value is loaded *)
let test_endpoint_memory_flat () =
  let smem = Memory.create Abi.x86_64 and rmem = Memory.create Abi.sparc_32 in
  let sreg = Registry.create Abi.x86_64 in
  let sfmt = Registry.register sreg Fx.decl_a in
  let rreg = Registry.create Abi.sparc_32 in
  ignore (Registry.register rreg Fx.decl_a);
  let a, b = loopback () in
  let sender = Endpoint.Sender.create a smem in
  let receiver = Endpoint.Receiver.create b rreg rmem in
  let exchange () =
    Endpoint.Sender.send_value sender sfmt Fx.value_a;
    match Endpoint.Receiver.recv_value receiver with
    | Some (_, v) ->
      check value_testable "field survives" (Value.String "DELTA")
        (Value.field_exn v "arln")
    | None -> Alcotest.fail "no message"
  in
  exchange ();
  let s0 = Memory.allocated_bytes smem and r0 = Memory.allocated_bytes rmem in
  for _ = 1 to 10_000 do
    exchange ()
  done;
  check int "sender memory flat" s0 (Memory.allocated_bytes smem);
  check int "receiver memory flat" r0 (Memory.allocated_bytes rmem)

(* format ids restart at 1 in every registry: a sender that sends v1
   from one registry and then v2 from another must announce v2 too, or
   the receiver decodes v2 events as v1 *)
let test_endpoint_reannounces_reused_id () =
  let decl_v2 =
    { Fx.decl_a with
      Ftype.fields = Fx.decl_a.Ftype.fields @ [ Ftype.io_field "gate" "string" ]
    }
  in
  let fmt1 = Registry.register (Registry.create Abi.x86_64) Fx.decl_a in
  let fmt2 = Registry.register (Registry.create Abi.x86_64) decl_v2 in
  check int "both formats take id 1" fmt1.Format.id fmt2.Format.id;
  let rreg = Registry.create Abi.sparc_32 in
  ignore (Registry.register rreg decl_v2);
  let a, b = loopback () in
  let sender = Endpoint.Sender.create a (Memory.create Abi.x86_64) in
  let receiver = Endpoint.Receiver.create b rreg (Memory.create Abi.sparc_32) in
  let gate () =
    match Endpoint.Receiver.recv_value receiver with
    | Some (_, v) -> Value.field_exn v "gate"
    | None -> Alcotest.fail "no message"
  in
  Endpoint.Sender.send_value sender fmt1 Fx.value_a;
  check value_testable "v1 event: empty gate" (Value.String "") (gate ());
  Endpoint.Sender.send_value sender fmt2
    (Value.set_field Fx.value_a "gate" (Value.String "T7"));
  check value_testable "v2 event: gate present" (Value.String "T7") (gate ())

let test_endpoint_rejects_garbage_frame () =
  let reg = Registry.create Abi.x86_64 in
  let a, b = loopback () in
  let receiver = Endpoint.Receiver.create b reg (Memory.create Abi.x86_64) in
  Link.send a (Bytes.of_string "Zjunk");
  (try
     ignore (Endpoint.Receiver.recv receiver);
     Alcotest.fail "expected a decode error"
   with Decode.Error { layer = "endpoint"; reason = Bad_tag; _ } -> ());
  Link.send a (Bytes.of_string "");
  try
    ignore (Endpoint.Receiver.recv receiver);
    Alcotest.fail "expected a decode error (empty)"
  with Decode.Error { layer = "endpoint"; reason = Truncated; _ } -> ()

let test_endpoint_over_netsim () =
  (* the protocol is transport-agnostic: same flow over a netsim link *)
  let sreg = Registry.create Abi.x86_64 in
  let sfmt = Registry.register sreg Fx.decl_b in
  let rreg = Registry.create Abi.power_64 in
  ignore (Registry.register rreg Fx.decl_b);
  let a, b, clock, _ = Netsim.pair Netsim.lan_1999 in
  let sender = Endpoint.Sender.create a (Memory.create Abi.x86_64) in
  let receiver = Endpoint.Receiver.create b rreg (Memory.create Abi.power_64) in
  Endpoint.Sender.send_value sender sfmt Fx.value_b;
  (match Endpoint.Receiver.recv_value receiver with
  | Some (_, v) ->
    check value_testable "value over netsim"
      (Value.Uint 1579874834L)
      (match Value.field_exn v "eta" with
      | Value.Array a -> a.(0)
      | _ -> Value.Uint 0L)
  | None -> Alcotest.fail "no message");
  check bool "virtual time advanced" true (Netsim.now clock > 0.0)

(* ------------------------------------------------------------------ *)
(* TCP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_tcp_roundtrip () =
  let sock, port = Omf_reactor.Reactor.listener ~port:0 () in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  (* the server side: accept one connection and decode one event *)
  let received = ref None in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept ~cloexec:true sock in
        let link = Tcp.link_of_fd fd in
        let rreg = Registry.create Abi.sparc_32 in
        ignore (Registry.register rreg Fx.decl_a);
        let receiver =
          Endpoint.Receiver.create link rreg (Memory.create Abi.sparc_32)
        in
        received := Endpoint.Receiver.recv_value receiver;
        Link.close link)
      ()
  in
  let link = Tcp.connect ~port () in
  let sreg = Registry.create Abi.x86_64 in
  let sfmt = Registry.register sreg Fx.decl_a in
  let sender = Endpoint.Sender.create link (Memory.create Abi.x86_64) in
  Endpoint.Sender.send_value sender sfmt Fx.value_a;
  Thread.join server;
  Link.close link;
  match !received with
  | Some (_, v) ->
    check value_testable "value over real TCP, cross-ABI"
      (Value.String "ZTL-ARTCC-0004")
      (Value.field_exn v "cntrID")
  | None -> Alcotest.fail "server saw nothing"

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_tcp_connect_refused () =
  (try
     ignore (Tcp.connect ~port:1 ());
     Alcotest.fail "expected Tcp_error"
   with Tcp.Tcp_error _ -> ());
  (* a host name takes the same resolve-and-dial path: a typed error
     and the socket closed, every time *)
  let before = open_fds () in
  for _ = 1 to 50 do
    match Tcp.dial ~host:"localhost" ~port:1 () with
    | fd ->
      Unix.close fd;
      Alcotest.fail "expected Tcp_error"
    | exception Tcp.Tcp_error _ -> ()
  done;
  check int "no descriptor leaked" before (open_fds ())

(* a client reaches a host through [Tcp.dial]: a refused host name
   surfaces as the relay client's own typed error, with no descriptor
   left behind (the HTTP and registry clients dial 127.0.0.1 only) *)
let test_clients_refused_by_name () =
  let before = open_fds () in
  (match Omf_relay.Relay.Client.connect ~host:"localhost" ~port:1 () with
  | _ -> Alcotest.fail "relay client connected to port 1"
  | exception Omf_relay.Relay.Client.Error _ -> ());
  check int "no descriptor leaked" before (open_fds ())

(* ------------------------------------------------------------------ *)
(* Macframe                                                             *)
(* ------------------------------------------------------------------ *)

module Sha256 = Omf_util.Sha256
module Slice = Omf_util.Slice

(* The tag as the MAC once built it: HMAC-SHA256 over one fresh
   [nonce_be8 || len_be4 || payload] buffer. Kept as the reference the
   in-place MAC must match byte for byte. *)
let reference_tag ~key ~nonce payload =
  let prefix = Bytes.create 12 in
  Bytes.set_int64_be prefix 0 nonce;
  Bytes.set_int32_be prefix 8 (Int32.of_int (String.length payload));
  Sha256.hmac ~key (Bytes.to_string prefix ^ payload)

(* a sender's and a receiver's state after [before] frames: the next
   frame's nonce is [before + 1] *)
let after_frames key before =
  let tx = Macframe.state ~key and rx = Macframe.state ~key in
  for _ = 1 to before do
    ignore (Macframe.open_next rx (Macframe.seal_next tx Bytes.empty))
  done;
  (tx, rx)

let prop_macframe_tag =
  QCheck.Test.make ~name:"macframe tag = HMAC(nonce || len || payload)" ~count:300
    QCheck.(
      quad (string_of_size Gen.(0 -- 100)) (int_bound 4)
        (string_of_size Gen.(0 -- 300))
        small_nat)
    (fun (key, before, payload, lead) ->
      let nonce = Int64.of_int (before + 1) in
      let expected = reference_tag ~key ~nonce payload in
      let sealed =
        Macframe.seal_next (fst (after_frames key before)) (Bytes.of_string payload)
      in
      (* the payload viewed at an offset of a larger buffer *)
      let buf = Bytes.of_string (String.make lead '<' ^ payload ^ ">>") in
      let hdr = Bytes.create Macframe.header_length in
      Macframe.seal_header (fst (after_frames key before)) hdr buf lead
        (String.length payload);
      let sealed_frame = Bytes.cat hdr (Bytes.of_string payload) in
      Bytes.get_int64_be sealed 0 = nonce
      && String.equal (Bytes.sub_string sealed 8 32) expected
      && Bytes.equal (Omf_reactor.Frame.encode sealed) sealed_frame
      && String.equal
           (Bytes.to_string (Macframe.open_next (snd (after_frames key before)) sealed))
           payload)

(* sealing feeds the payload to the MAC in place: [seal_next] allocates
   the sealed body, not a second copy of the payload, and
   [seal_header] of a viewed payload allocates nothing; [open_next]
   allocates the payload it returns, and no copy to MAC *)
let test_macframe_allocation () =
  let key = "bench-key" and n = 16_384 in
  let payload = Bytes.make n 'p' in
  let budget = float_of_int (n + Macframe.overhead + 2048) in
  let within what f =
    let per_call = Omf_testkit.Alloc.bytes_per_call ~iters:50 f in
    if per_call > budget then
      Alcotest.failf "%s of %d B allocates %.0f B per call (budget %.0f B)" what n
        per_call budget
  in
  let st = Macframe.state ~key in
  within "seal" (fun () -> Macframe.seal_next st payload);
  let hdr = Bytes.create Macframe.header_length in
  let header_B =
    Omf_testkit.Alloc.bytes_per_call ~iters:50 (fun () ->
        Macframe.seal_header st hdr payload 1000 (n - 1000))
  in
  if header_B > 16.0 then
    Alcotest.failf "seal_header of %d B allocates %.0f B per call (budget 16 B)"
      (n - 1000) header_B;
  (* the probe makes one warm-up call and 50 measured ones, each opening
     the next frame of a sequence *)
  let tx = Macframe.state ~key and rx = Macframe.state ~key in
  let frames = Array.init 51 (fun _ -> Macframe.seal_next tx payload) in
  let next = ref 0 in
  within "verify" (fun () ->
      let frame = frames.(!next) in
      incr next;
      Macframe.open_next rx frame)

(* ------------------------------------------------------------------ *)
(* The framed client link, in each negotiated mode                     *)
(* ------------------------------------------------------------------ *)

module Linkpair = Omf_testkit.Linkpair

let text n =
  let words = [| "flight "; "delayed "; "gate "; "runway "; "tower " |] in
  let b = Buffer.create n in
  let i = ref 0 in
  while Buffer.length b < n do
    Buffer.add_string b words.(!i mod Array.length words);
    incr i
  done;
  Buffer.sub b 0 n

let noise n =
  let rng = Random.State.make [| n |] in
  String.init n (fun _ -> Char.chr (Random.State.int rng 256))

let link_bodies =
  [ ("empty", "")
  ; ("shorter than 16 B (stored block)", "tiny body")
  ; ("compressible", text 1100)
  ; ("incompressible", noise 900)
  ; ("larger than the initial buffer", text 6000 ^ noise 4000) ]

(* every frame the link writes is byte-identical to framing
   seal (compress body) by hand, and it reads such frames back to the
   body; a tampered sealed frame is rejected and leaves the receive
   nonce where it was *)
let test_link_bytes () =
  List.iter
    (fun (m : Linkpair.mode) ->
      let t = Linkpair.create m in
      Fun.protect ~finally:(fun () -> Linkpair.close t) @@ fun () ->
      List.iter
        (fun (what, body) ->
          let body = Bytes.of_string body in
          let case = m.name ^ ", " ^ what in
          Link.send t.link body;
          let want = Linkpair.expected_send t body in
          check bool (case ^ ": sent bytes") true
            (Bytes.equal want (Linkpair.read_raw t (Bytes.length want)));
          let frame = Linkpair.peer_frame t body in
          if m.mac then begin
            let forged = Bytes.copy frame in
            let i = Bytes.length forged - 1 in
            Bytes.set forged i (Char.chr (Char.code (Bytes.get forged i) lxor 1));
            Linkpair.write_raw t forged;
            match Link.recv t.link with
            | _ -> Alcotest.failf "%s: tampered frame accepted" case
            | exception Decode.Error { layer = "mac"; reason = Bad_mac; _ } -> ()
          end;
          Linkpair.write_raw t frame;
          check bool (case ^ ": received body") true
            (Bytes.equal body (Link.recv_exn t.link)))
        link_bodies)
    Linkpair.modes

(* after warm-up a send allocates nothing the caller keeps, and a
   receive of a repeated-length frame nothing at all: the body is lent
   from the link's receive buffer, reused while lengths repeat, in the
   same option *)
let test_link_allocation () =
  List.iter
    (fun (m : Linkpair.mode) ->
      let t = Linkpair.create m in
      Fun.protect ~finally:(fun () -> Linkpair.close t) @@ fun () ->
      List.iter
        (fun (what, body) ->
          let body = Bytes.of_string body in
          let n = Bytes.length body in
          let send = Linkpair.send_bytes t body in
          if send > 64.0 then
            Alcotest.failf "%s, %s: send allocates %.0f B per frame (budget 64)"
              m.name what send;
          let recv = Linkpair.recv_bytes t body in
          if recv >= 1.0 then
            Alcotest.failf
              "%s, %s: recv allocates %.1f B per frame of %d B (budget < 1)"
              m.name what recv n)
        link_bodies)
    Linkpair.modes

(* A received body is lent until the next recv on the link. Over a
   seeded run of bodies whose lengths repeat and alternate (0 and
   64 KiB + 1 among them; compressible and not), each body received
   equals the one sent, checked before the next recv, in every mode. *)
let loan_lengths = [| 0; 1; 9; 900; 4096; 65537 |]

let prop_link_loans =
  QCheck.Test.make ~name:"framed link: each loan holds its own body" ~count:30
    QCheck.(
      pair small_nat
        (list_of_size Gen.(int_range 1 16)
           (int_bound (Array.length loan_lengths - 1))))
    (fun (seed, picks) ->
      let rng = Random.State.make [| seed |] in
      let body n =
        if Random.State.bool rng then
          let k = Random.State.int rng 26 in
          Bytes.init n (fun j -> Char.chr (97 + ((j / 7 + k) mod 26)))
        else Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let lengths =
        [ 65537; 65537; 0; 0; 65537 ] @ List.map (Array.get loan_lengths) picks
      in
      List.for_all
        (fun (m : Linkpair.mode) ->
          let t = Linkpair.create m in
          Fun.protect ~finally:(fun () -> Linkpair.close t) @@ fun () ->
          List.for_all
            (fun n ->
              let b = body n in
              Linkpair.write_raw t (Linkpair.peer_frame t b);
              Bytes.equal b (Link.recv_exn t.link))
            lengths)
        Linkpair.modes)

(* [Endpoint.Receiver.recv] converts each event straight out of the
   frame the link lends: once warm, over a plain link, it allocates
   only the link's option and the pair it returns (<= 512 B), on every
   shape bench/e2e sends *)
let test_endpoint_recv_allocation () =
  let module Shapes = Omf_testkit.Shapes in
  let plain =
    List.find (fun (m : Linkpair.mode) -> m.name = "plain") Linkpair.modes
  in
  List.iter
    (fun (s : Shapes.t) ->
      let t = Linkpair.create plain in
      Fun.protect ~finally:(fun () -> Linkpair.close t) @@ fun () ->
      let sfmt = Shapes.register s.send_abi s in
      let smem = Memory.create s.send_abi in
      let msg = message smem sfmt (Native.store smem sfmt s.value) in
      let rmem = Memory.create s.recv_abi in
      let r = Endpoint.Receiver.create t.link (Shapes.registry s.recv_abi s) rmem in
      let descriptor = Bytes.of_string (Format_codec.encode sfmt) in
      Linkpair.write_raw t
        (Linkpair.peer_frame t (Bytes.cat (Bytes.make 1 'D') descriptor));
      let frame = Linkpair.peer_frame t (Bytes.cat (Bytes.make 1 'M') msg) in
      let b =
        Omf_testkit.Alloc.bytes_per_call (fun () ->
            Memory.reset rmem;
            Linkpair.write_raw t frame;
            Endpoint.Receiver.recv r)
      in
      if b > 512.0 then
        Alcotest.failf
          "%s: Endpoint.Receiver.recv allocates %.0f B per event (budget 512)"
          s.name b)
    Shapes.bench

(* Relaying through [Omf_reactor.Conn]: a publisher
   connection's frame, queued on a subscriber connection straight from
   the publisher's read buffer ([Conn.send_body ~lender]), and written
   by the end-of-read flush. When the subscriber's socket takes it
   all, nothing is copied, so relaying a 16 KiB frame allocates only
   the decoder's view: the queue entry and the header buffer it owns
   are reused. The loop runs on
   this test's domain (allocation counters are per domain) and also
   drives both socketpair ends the test holds; each frame is measured
   from the publisher's read to the subscriber's write. *)
let test_conn_relay_allocation () =
  let module Reactor = Omf_reactor.Reactor in
  let module Conn = Omf_reactor.Conn in
  let module Frame = Omf_reactor.Frame in
  let module Alloc = Omf_testkit.Alloc in
  let frames = 40 and warmup = 8 in
  let loop = Reactor.create () in
  let pub_peer, pub_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let sub_fd, sub_peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wire = Frame.encode (Bytes.make 16384 'x') in
  let sent = ref 0 and received = ref 0 in
  let measuring = ref false and t0 = ref 0.0 in
  let total = ref 0.0 and windows = ref 0 in
  let sub =
    Conn.attach loop sub_fd
      ~on_input:(fun _ _ -> ())
      ~on_close:(fun _ _ -> ())
      ~on_bytes:(fun _ dir _ ->
        if dir = `Out && !measuring then begin
          let w = Alloc.words () in
          measuring := false;
          if !sent > warmup then begin
            total := !total +. (w -. !t0);
            incr windows
          end
        end)
      ()
  in
  let pub =
    Conn.attach loop pub_fd
      ~on_input:(fun c body ->
        Conn.send_body sub ~droppable:true ~lender:c body.buf body.off
          body.len)
      ~on_close:(fun _ _ -> ())
      ~on_bytes:(fun _ dir _ ->
        if dir = `In && not !measuring then begin
          measuring := true;
          t0 := Alloc.words ()
        end)
      ()
  in
  let send_next () =
    incr sent;
    ignore (Unix.write pub_peer wire 0 (Bytes.length wire))
  in
  let sink = Bytes.create 65536 in
  ignore
    (Reactor.register loop sub_peer ~on_writable:ignore ~on_readable:(fun () ->
         received := !received + Unix.read sub_peer sink 0 (Bytes.length sink);
         if !received = !sent * Bytes.length wire then
           if !sent < frames then send_next () else Reactor.stop loop));
  send_next ();
  Reactor.run loop;
  Conn.doom pub "done";
  Conn.doom sub "done";
  List.iter Unix.close [ pub_peer; sub_peer ];
  Reactor.dispose loop;
  (* the probe's own allocation: one reading's result *)
  let c0 = Alloc.words () in
  let c1 = Alloc.words () in
  check int "every measured frame relayed" (frames - warmup) !windows;
  let per_frame =
    ((!total /. float_of_int !windows) -. (c1 -. c0))
    *. float_of_int (Sys.word_size / 8)
  in
  Printf.printf "relaying a 16 KiB frame: %.0f B allocated\n" per_frame;
  if per_frame > 256.0 then
    Alcotest.failf "relaying a 16 KiB frame allocates %.0f B (budget 256)"
      per_frame

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "transport"
    [ ( "loopback",
        [ Alcotest.test_case "fifo + duplex" `Quick test_loopback_fifo
        ; Alcotest.test_case "close semantics" `Quick test_loopback_close_semantics
        ; Alcotest.test_case "buffer isolation" `Quick test_loopback_isolation ] )
    ; ( "netsim",
        [ Alcotest.test_case "latency accounting" `Quick
            test_netsim_latency_accounting
        ; Alcotest.test_case "pipelining" `Quick test_netsim_pipelining
        ; Alcotest.test_case "transmit time" `Quick test_netsim_transmit_time ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_netsim_monotone; prop_netsim_latency_lower_bound ] )
    ; ( "endpoint",
        [ Alcotest.test_case "automatic negotiation" `Quick
            test_endpoint_negotiation_automatic
        ; Alcotest.test_case "descriptor sent once" `Quick
            test_endpoint_descriptor_sent_once
        ; Alcotest.test_case "garbage frames rejected" `Quick
            test_endpoint_rejects_garbage_frame
        ; Alcotest.test_case "works over netsim" `Quick test_endpoint_over_netsim
        ; Alcotest.test_case "value endpoints keep memory flat" `Quick
            test_endpoint_memory_flat
        ; Alcotest.test_case "a reused format id is announced again" `Quick
            test_endpoint_reannounces_reused_id ] )
    ; ( "tcp",
        [ Alcotest.test_case "cross-ABI over real sockets" `Quick test_tcp_roundtrip
        ; Alcotest.test_case "connection refused" `Quick test_tcp_connect_refused
        ; Alcotest.test_case "clients refused by host name" `Quick
            test_clients_refused_by_name
        ; Alcotest.test_case "framed link bytes, every mode" `Quick
            test_link_bytes
        ; Alcotest.test_case "framed link allocation" `Quick
            test_link_allocation
        ; Alcotest.test_case "endpoint receive allocation" `Quick
            test_endpoint_recv_allocation
        ; Alcotest.test_case "relay connection allocation" `Quick
            test_conn_relay_allocation ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_link_loans ] )
    ; ( "macframe",
        [ Alcotest.test_case "no payload copy to MAC" `Quick
            test_macframe_allocation ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_macframe_tag ] )
    ]
