(** Tests for the networked event relay: frame reassembly from partial
    reads (property-tested), subscribe/replay, descriptor-cache dedupe
    and credential scoping over real TCP, zero-loss fan-out to 64
    concurrent subscribers under the [Block] policy and its per-stream
    isolation, slow-consumer shedding and eviction, relay-wide stream
    gauges across shards, and graceful drain-and-shutdown. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Frame = Omf_reactor.Frame
module Decode = Omf_util.Decode
module Relay = Omf_relay.Relay
module Session = Omf_relay.Relay_session
module Proto = Omf_relay.Relay_proto
module Fx = Omf_fixtures.Paper_structs
module Catalog = Omf_xml2wire.Catalog
module X2W = Omf_xml2wire.Xml2wire

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Frame codec                                                          *)
(* ------------------------------------------------------------------ *)

(* random frame sequences, split at random byte boundaries (the partial
   reads a non-blocking socket delivers), must round-trip exactly *)
let prop_frame_reassembly =
  QCheck.Test.make ~name:"frame reassembly across arbitrary splits"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 16) (string_of_size Gen.(0 -- 400)))
        int)
    (fun (frames, seed) ->
      let wire = Buffer.create 1024 in
      List.iter
        (fun f -> Buffer.add_bytes wire (Frame.encode (Bytes.of_string f)))
        frames;
      let wire = Buffer.to_bytes wire in
      let rng = Omf_util.Prng.create ~seed:(Int64.of_int seed) () in
      let dec = Frame.Decoder.create () in
      let out = ref [] in
      let off = ref 0 in
      while !off < Bytes.length wire do
        let n = min (1 + Omf_util.Prng.int rng 7) (Bytes.length wire - !off) in
        Frame.Decoder.feed dec wire !off n;
        off := !off + n;
        let rec drain () =
          if Frame.Decoder.has_frame dec then begin
            let f = Frame.Decoder.pop dec in
            out := Omf_util.Slice.to_string f :: !out; drain ()
          end
        in
        drain ()
      done;
      List.rev !out = frames && Frame.Decoder.pending_bytes dec = 0)

(* the decoder hands out views into its buffer, not copies: every view
   popped between two feeds shares one backing buffer and is still
   intact when the last of them is popped, and all of them together
   equal the encoded frames, however the wire is chunked *)
let prop_decoder_views =
  QCheck.Test.make
    ~name:"decoder views equal the encoded frames (random chunkings)"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 24) (string_of_size Gen.(0 -- 3000)))
        int)
    (fun (frames, seed) ->
      let wire = Buffer.create 4096 in
      List.iter
        (fun f -> Buffer.add_bytes wire (Frame.encode (Bytes.of_string f)))
        frames;
      let wire = Buffer.to_bytes wire in
      let rng = Omf_util.Prng.create ~seed:(Int64.of_int seed) () in
      let dec = Frame.Decoder.create () in
      let out = ref [] and shared = ref true in
      let off = ref 0 in
      while !off < Bytes.length wire do
        let n =
          min (1 + Omf_util.Prng.int rng 9000) (Bytes.length wire - !off)
        in
        Frame.Decoder.feed dec wire !off n;
        off := !off + n;
        let rec drain acc =
          if Frame.Decoder.has_frame dec then
            drain (Frame.Decoder.pop dec :: acc)
          else acc
        in
        (* newest first; read only after the batch is fully popped *)
        let views = drain [] in
        (match views with
        | v :: rest ->
          if
            not
              (List.for_all
                 (fun (w : Omf_util.Slice.t) -> w.buf == v.Omf_util.Slice.buf)
                 rest)
          then shared := false
        | [] -> ());
        out := List.map Omf_util.Slice.to_string views @ !out
      done;
      !shared && List.rev !out = frames && Frame.Decoder.pending_bytes dec = 0)

(* a header announcing one byte more than the 1 GiB limit is refused
   before any body arrives; the limit itself is only waited on *)
let test_frame_max_length () =
  let header len =
    let dec = Frame.Decoder.create () in
    let b = Bytes.create 4 in
    Frame.write_header b 0 len;
    Frame.Decoder.feed dec b 0 4;
    dec
  in
  check bool "a frame at the limit waits for its body" false
    (Frame.Decoder.has_frame (header (1 lsl 30)));
  try
    ignore (Frame.Decoder.has_frame (header ((1 lsl 30) + 1)));
    Alcotest.fail "expected a decode error"
  with Decode.Error { layer = "frame"; reason = Too_long; _ } -> ()

(* sealed (HMAC) frames: a sequence survives the frame codec across
   arbitrary read boundaries and verifies in order; flipping any single
   bit of any sealed frame — header nonce, tag, or payload — is
   rejected, and the receive nonce does not advance past the damage *)
let prop_macframe_roundtrip_and_tamper =
  QCheck.Test.make ~name:"sealed frames round-trip; any bit flip rejected"
    ~count:300
    QCheck.(
      pair (list_of_size Gen.(1 -- 8) (string_of_size Gen.(0 -- 300))) int)
    (fun (payloads, seed) ->
      let key = "a shared capture-point secret" in
      let rng = Omf_util.Prng.create ~seed:(Int64.of_int seed) () in
      let tx = Macframe.state ~key in
      let sealed =
        List.map (fun p -> Macframe.seal_next tx (Bytes.of_string p)) payloads
      in
      (* wire = framed sealed bodies, fed to the decoder in ragged chunks *)
      let wire = Buffer.create 1024 in
      List.iter (fun f -> Buffer.add_bytes wire (Frame.encode f)) sealed;
      let wire = Buffer.to_bytes wire in
      let dec = Frame.Decoder.create () in
      let rx = Macframe.state ~key in
      let out = ref [] in
      let off = ref 0 in
      while !off < Bytes.length wire do
        let n = min (1 + Omf_util.Prng.int rng 9) (Bytes.length wire - !off) in
        Frame.Decoder.feed dec wire !off n;
        off := !off + n;
        let rec drain () =
          if Frame.Decoder.has_frame dec then begin
            let f = Frame.Decoder.pop dec in
            out :=
              Bytes.to_string
                (Macframe.open_next rx (Omf_util.Slice.to_bytes f))
              :: !out;
            drain ()
          end
        in
        drain ()
      done;
      let roundtrips = List.rev !out = payloads in
      (* tamper: pick a frame, flip one random bit anywhere in it *)
      let victim_ix = Omf_util.Prng.int rng (List.length sealed) in
      let rx2 = Macframe.state ~key in
      let rejected = ref false in
      List.iteri
        (fun i f ->
          if i < victim_ix then ignore (Macframe.open_next rx2 f)
          else if i = victim_ix then begin
            let f = Bytes.copy f in
            let byte = Omf_util.Prng.int rng (Bytes.length f) in
            let bit = Omf_util.Prng.int rng 8 in
            Bytes.set f byte
              (Char.chr (Char.code (Bytes.get f byte) lxor (1 lsl bit)));
            (match Macframe.open_next rx2 f with
            | _ -> ()
            | exception Decode.Error { layer = "mac"; _ } -> rejected := true);
            (* the chain stays broken: even the genuine next frame is
               now refused (no silent deletion of the damaged one) *)
            match List.nth_opt sealed (i + 1) with
            | None -> ()
            | Some next -> (
              match Macframe.open_next rx2 next with
              | _ -> rejected := false
              | exception Decode.Error { layer = "mac"; _ } -> ())
          end)
        sealed;
      roundtrips && !rejected)

module Slice = Omf_util.Slice

(* the zero-copy codecs must be byte-identical to the copying ones: a
   body viewed at an arbitrary offset of a larger buffer (an empty body
   included) behind a 4-byte header written apart from it is
   [Frame.encode] of the body; behind a [Macframe.seal_header] header
   it seals identically under the same nonce chain; and the stream
   round-trips through reassembly across ragged reads — including at
   exactly the decoder's max-frame limit *)
let prop_slice_codec_equivalence =
  QCheck.Test.make ~name:"slice codecs byte-identical to Bytes codecs"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 8) (string_of_size Gen.(0 -- 300)))
        int)
    (fun (pieces, seed) ->
      let rng = Omf_util.Prng.create ~seed:(Int64.of_int seed) () in
      let body = Bytes.of_string (String.concat "" pieces) in
      let len = Bytes.length body in
      let lead = Omf_util.Prng.int rng 16 in
      let buf = Bytes.make (lead + len + 3) '#' in
      Bytes.blit body 0 buf lead len;
      let behind hdr = Bytes.cat hdr (Bytes.sub buf lead len) in
      let hdr = Bytes.create Frame.header_length in
      Frame.write_header hdr 0 len;
      let flat = behind hdr in
      let encoded_identical = Bytes.equal flat (Frame.encode body) in
      (* sealing a viewed payload = sealing a copy of it *)
      let key = "a shared capture-point secret" in
      let tx_ref = Macframe.state ~key and tx_io = Macframe.state ~key in
      let sealed () =
        let hdr = Bytes.create Macframe.header_length in
        Macframe.seal_header tx_io hdr buf lead len;
        behind hdr
      in
      let sealed_identical =
        Bytes.equal (Frame.encode (Macframe.seal_next tx_ref body)) (sealed ())
        (* a second frame: the send nonce advanced in lockstep *)
        && Bytes.equal
             (Frame.encode (Macframe.seal_next tx_ref body))
             (sealed ())
      in
      (* the framed view reassembles to the body across arbitrary
         read boundaries *)
      let dec = Frame.Decoder.create () in
      let out = ref None in
      let off = ref 0 in
      while !off < Bytes.length flat do
        let n = min (1 + Omf_util.Prng.int rng 7) (Bytes.length flat - !off) in
        Frame.Decoder.feed dec flat !off n;
        off := !off + n;
        if Frame.Decoder.has_frame dec then
          out := Some (Omf_util.Slice.to_bytes (Frame.Decoder.pop dec))
      done;
      if Frame.Decoder.has_frame dec then
        out := Some (Omf_util.Slice.to_bytes (Frame.Decoder.pop dec));
      let roundtrips =
        match !out with Some f -> Bytes.equal f body | None -> false
      in
      encoded_identical && sealed_identical && roundtrips)

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let event ?(pad = 0) seq =
  let v = Value.set_field Fx.value_a "fltNum" (Value.Int (Int64.of_int seq)) in
  if pad > 0 then Value.set_field v "equip" (Value.String (String.make pad 'x'))
  else v

let seq_of v =
  match Value.field_exn v "fltNum" with
  | Value.Int i -> Int64.to_int i
  | _ -> -1

(* an advertised stream plus a ready publisher endpoint *)
let make_publisher_abi ?auth ~host ~abi ~port ~stream () =
  let client = Relay.Client.connect ~host ~port ?auth () in
  Relay.Client.advertise client ~stream ~schema:Fx.schema_a;
  let link = Relay.Client.publish client ~stream in
  let catalog = Catalog.create abi in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let sender = Endpoint.Sender.create link (Memory.create abi) in
  (client, sender, fmt)

let make_publisher ~port ~stream =
  make_publisher_abi ~host:"127.0.0.1" ~abi:Abi.x86_64 ~port ~stream ()

(* a subscriber session with no reconnect budget: the end of its link
   ends it, raising [Session.Gave_up] *)
let subscribe ?host ?creds ?auth ~port ~stream abi =
  Session.subscribe
    (Session.config ?host ?creds ?auth ~max_attempts:0 ~port ())
    ~stream abi

(* a subscriber whose reads give up after ten seconds, so a stream the
   relay wrongly stalls fails the case instead of hanging it *)
let timed_consumer ~port ~stream abi =
  let client = Relay.Client.connect ~port ~io_timeout_s:10.0 () in
  let _schema, link = Relay.Client.subscribe client ~stream in
  let catalog = Catalog.create abi in
  ignore (X2W.register_schema catalog Fx.schema_a);
  ( client,
    Endpoint.Receiver.create link (Catalog.registry catalog) (Memory.create abi)
  )

let publish sender fmt ?pad seq =
  Endpoint.Sender.send_value sender fmt (event ?pad seq)

(* poll [stats] until [key] reaches [target] — makes async milestones
   deterministic *)
let poll_stat stats key target =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let v = Option.value ~default:0 (List.assoc_opt key (stats ())) in
    if v >= target then v
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timeout waiting for %s >= %d (at %d)" key target v
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ... via a fresh control connection per poll *)
let wait_stat ~port key target =
  poll_stat
    (fun () ->
      let c = Relay.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Relay.Client.close c)
        (fun () -> Relay.Client.stats c))
    key target

(* ... on an open connection: no new connection is dealt out, so which
   shard 0 deals the next one to stays predictable
   (round-robin: consecutive connections land on different shards) *)
let wait_stat_on client key target =
  poll_stat (fun () -> Relay.Client.stats client) key target

(* a multi-shard case must have migrated a connection between loops *)
let check_handoffs r =
  if Relay.shard_count r > 1 then
    check bool "a connection migrated between shards" true
      (Option.value ~default:0 (List.assoc_opt "shard_handoffs" (Relay.stats r))
      > 0)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* a fresh store root for one case, removed however the case ends *)
let with_store_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-relay-test-%d-%d" (Unix.getpid ())
         (Random.int 1000000))
  in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* ------------------------------------------------------------------ *)
(* Pub/sub over real TCP                                                *)
(* ------------------------------------------------------------------ *)

let pubsub_and_descriptor_replay ?shards ~joiners () =
  let h = Relay.start (Relay.listen ?shards ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  (* publish before anyone subscribes: the descriptor frame is cached *)
  publish sender fmt 0;
  ignore (wait_stat_on pub "events_relayed" 1);
  let late =
    List.init joiners (fun i ->
        subscribe ~port ~stream:"flights"
          (List.nth Abi.all (i mod List.length Abi.all)))
  in
  publish sender fmt 1;
  (* each late joiner missed event 0 but decodes event 1, because the
     relay replayed the cached format descriptor on subscribe *)
  List.iter
    (fun c ->
      match Session.recv_subscriber c with
      | Some (f, v) ->
        check Alcotest.string "format" "ASDOffEvent" f.Format.name;
        check int "replayed descriptor decodes the live event" 1 (seq_of v)
      | None -> Alcotest.fail "no event")
    late;
  check_handoffs h;
  List.iter Session.close_subscriber late;
  Relay.Client.close pub

let test_pubsub_and_descriptor_replay () =
  pubsub_and_descriptor_replay ~joiners:1 ()

(* A publisher's malformed descriptor reaches a subscriber session as
   the one decode error: the session drops its link and raises it. The
   relay replays the cached frame to every joiner, so a resubscribe
   would meet it again. *)
let test_malformed_descriptor_ends_subscriber () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub = Relay.Client.connect ~port () in
  Relay.Client.advertise pub ~stream:"flights" ~schema:Fx.schema_a;
  let link = Relay.Client.publish pub ~stream:"flights" in
  let sub = Session.subscribe (Session.config ~port ()) ~stream:"flights" Abi.sparc_32 in
  Link.send link (Bytes.of_string "DOMD2\000\000");
  (match Session.recv_subscriber sub with
  | _ -> Alcotest.fail "a malformed descriptor was accepted"
  | exception Decode.Error { layer = "descriptor"; reason = Truncated; _ } -> ());
  check int "no resubscribe" 0 (Session.subscriber_reconnects sub);
  Session.close_subscriber sub;
  Relay.Client.close pub

(* two events from an x86-64 publisher decode on a SPARC subscriber;
   [host] names the relay for the bind and for every client dial *)
let test_basic_pubsub ?(host = "127.0.0.1") () =
  let h = Relay.start (Relay.listen ~host ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt =
    make_publisher_abi ~host ~abi:Abi.x86_64 ~port ~stream:"flights" ()
  in
  let c = subscribe ~host ~port ~stream:"flights" Abi.sparc_32 in
  publish sender fmt 0;
  publish sender fmt 1;
  List.iter
    (fun expect ->
      match Session.recv_subscriber c with
      | Some (f, v) ->
        check Alcotest.string "format" "ASDOffEvent" f.Format.name;
        check int "sequence" expect (seq_of v);
        check bool "payload" true (Value.field v "org" = Some (Value.String "KATL"))
      | None -> Alcotest.fail "stream ended")
    [ 0; 1 ];
  Session.close_subscriber c;
  Relay.Client.close pub

(* one event reaches every subscriber, each on its own ABI *)
let test_fanout_many_subscribers () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let consumers =
    List.init 5 (fun i ->
        subscribe ~port ~stream:"flights"
          (List.nth Abi.all (i mod List.length Abi.all)))
  in
  check int "subscriber count" 5
    (List.assoc "stream.flights.subscribers" (Relay.Client.stats pub));
  publish sender fmt 3;
  List.iter
    (fun c ->
      match Session.recv_subscriber c with
      | Some (_, v) -> check int "every subscriber got it" 3 (seq_of v)
      | None -> Alcotest.fail "stream ended")
    consumers;
  List.iter Session.close_subscriber consumers;
  Relay.Client.close pub

(* a late joiner on every ABI decodes from the replayed descriptor *)
let test_late_joiner_descriptor_replay () =
  pubsub_and_descriptor_replay ~joiners:(List.length Abi.all) ()

(* a subscriber that closes leaves the stream; the one that stays keeps
   receiving *)
let test_unsubscribe () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let gone = subscribe ~port ~stream:"flights" Abi.x86_64 in
  let stays, rx = timed_consumer ~port ~stream:"flights" Abi.x86_64 in
  ignore (wait_stat_on pub "stream.flights.subscribers" 2);
  Session.close_subscriber gone;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec left () =
    let n = List.assoc "stream.flights.subscribers" (Relay.Client.stats pub) in
    if n > 1 then
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "the closed subscriber never left the stream"
      else begin
        Thread.delay 0.01;
        left ()
      end
  in
  left ();
  publish sender fmt 5;
  (match Endpoint.Receiver.recv_value rx with
  | Some (_, v) -> check int "the remaining subscriber receives" 5 (seq_of v)
  | None -> Alcotest.fail "stream ended");
  check int "one subscriber left" 1
    (List.assoc "stream.flights.subscribers" (Relay.Client.stats pub));
  Relay.Client.close stays;
  Relay.Client.close pub

(* 3 streams, 18 subscribers on rotating ABIs, 200 interleaved
   publishes: every subscriber gets exactly its stream's events, intact
   and in order *)
let test_stress_streams_x_subscribers () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let rng = Omf_util.Prng.create ~seed:99L () in
  let streams =
    List.map
      (fun name -> (name, make_publisher ~port ~stream:name))
      [ "alpha"; "beta"; "gamma" ]
  in
  let consumers =
    List.concat_map
      (fun (name, _) ->
        List.init 6 (fun i ->
            let abi = List.nth Abi.all (i * 2 mod List.length Abi.all) in
            (name, timed_consumer ~port ~stream:name abi)))
      streams
  in
  let sent = Hashtbl.create 3 in
  for seq = 0 to 199 do
    let name, (_, sender, fmt) = List.nth streams (Omf_util.Prng.int rng 3) in
    publish sender fmt seq;
    Hashtbl.replace sent name
      (seq :: Option.value ~default:[] (Hashtbl.find_opt sent name))
  done;
  List.iter
    (fun (name, (client, rx)) ->
      let expected =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt sent name))
      in
      let got =
        List.map
          (fun _ ->
            match Endpoint.Receiver.recv_value rx with
            | Some (_, v) ->
              check bool "payload intact" true
                (Value.field v "arln" = Some (Value.String "DELTA"));
              seq_of v
            | None -> Alcotest.fail "stream ended")
          expected
      in
      check (Alcotest.list int) (name ^ " events") expected got;
      Relay.Client.close client)
    consumers;
  List.iter (fun (_, (pub, _, _)) -> Relay.Client.close pub) streams

(* display clients see every field; handheld gate devices see only the
   flight number and route *)
let test_credential_field_scoping () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  Relay.set_scope h ~stream:"flights" (fun creds ->
      match List.assoc_opt "role" creds with
      | Some "display" | None -> None
      | Some _ -> Some [ "fltNum"; "org"; "dest" ]);
  let display =
    subscribe ~port ~creds:[ ("role", "display") ]
      ~stream:"flights" Abi.sparc_32
  in
  let handheld =
    subscribe ~port ~creds:[ ("role", "handheld") ]
      ~stream:"flights" Abi.arm_32
  in
  publish sender fmt 1771;
  let _, full = Option.get (Session.recv_subscriber display) in
  let _, scoped = Option.get (Session.recv_subscriber handheld) in
  check bool "display sees cntrID" true (Value.field full "cntrID" <> None);
  check bool "handheld does not see cntrID" true
    (Value.field scoped "cntrID" = None);
  check int "handheld sees fltNum" 1771 (seq_of scoped);
  check bool "handheld sees dest" true
    (Value.field scoped "dest" = Some (Value.String "KMCO"));
  check bool "handheld sees org" true
    (Value.field scoped "org" = Some (Value.String "KATL"));
  List.iter Session.close_subscriber [ display; handheld ];
  Relay.Client.close pub

let scoped_credentials_over_tcp ?shards () =
  let h = Relay.start (Relay.listen ?shards ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  Relay.set_scope h ~stream:"flights"
    (fun creds ->
      match List.assoc_opt "role" creds with
      | Some "display" | None -> None
      | Some _ -> Some [ "fltNum"; "org"; "dest" ]);
  let display =
    subscribe ~port ~creds:[ ("role", "display") ]
      ~stream:"flights" Abi.sparc_32
  in
  let handheld =
    subscribe ~port ~creds:[ ("role", "handheld") ]
      ~stream:"flights" Abi.arm_32
  in
  publish sender fmt 7;
  let _, full = Option.get (Session.recv_subscriber display) in
  let _, scoped = Option.get (Session.recv_subscriber handheld) in
  check bool "display sees cntrID" true (Value.field full "cntrID" <> None);
  check bool "handheld does not see cntrID" true
    (Value.field scoped "cntrID" = None);
  check int "handheld sees the sequence" 7 (seq_of scoped);
  (* the scoped schema the relay served is itself reduced *)
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check bool "scoped schema omits cntrID" false
    (contains (Session.subscriber_schema handheld) "cntrID");
  check_handoffs h;
  Session.close_subscriber display;
  Session.close_subscriber handheld;
  Relay.Client.close pub

let test_scoped_credentials_over_tcp () = scoped_credentials_over_tcp ()

let test_unknown_stream_and_role_errors () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  (try
     ignore (subscribe ~port ~stream:"nope" Abi.x86_64);
     Alcotest.fail "expected Client.Error"
   with Relay.Client.Error _ -> ());
  let pub, _sender, _fmt = make_publisher ~port ~stream:"flights" in
  (* a publisher connection cannot also subscribe *)
  (try
     ignore (Relay.Client.subscribe pub ~stream:"flights");
     Alcotest.fail "expected Client.Error"
   with Relay.Client.Error _ -> ());
  Relay.Client.close pub

(* Only a stream some shard hosts is pinned: a DESCRIBE, SUBSCRIBE,
   PUBLISH or PROMOTE of a stream nobody advertised, or an ADVERTISE
   that is refused, fails without leaving a phantom in LIST (a mirror
   scanning this relay would spawn a doomed link per phantom). *)
let test_list_excludes_unknown_streams () =
  let h = Relay.start (Relay.listen ~shards:2 ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, _sender, _fmt = make_publisher ~port ~stream:"flights" in
  (* the second connection lands on the other shard *)
  let c = Relay.Client.connect ~port () in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s of an unknown stream succeeded" what
    | exception Relay.Client.Error _ -> ()
  in
  refused "DESCRIBE" (fun () ->
      ignore (Relay.Client.describe c ~stream:"ghost"));
  refused "SUBSCRIBE" (fun () ->
      ignore (Relay.Client.subscribe c ~stream:"ghost2"));
  refused "PROMOTE" (fun () ->
      ignore (Relay.Client.promote c ~stream:"ghost3"));
  refused "ADVERTISE" (fun () ->
      Relay.Client.advertise c ~stream:"ghost4" ~schema:"<not-a-schema");
  refused "PUBLISH" (fun () ->
      ignore (Relay.Client.publish c ~stream:"ghost5"));
  check (Alcotest.list Alcotest.string) "LIST names only the advertised stream"
    [ "flights" ] (Relay.Client.list_streams c);
  Relay.Client.close c;
  Relay.Client.close pub

(* A scope that leaves a type with no visible field is refused on
   SUBSCRIBE and DESCRIBE with an access-denied error; the refusal
   gives the connection no role, so it stays usable. *)
let test_scoping_denies_empty_slice () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, _sender, _fmt = make_publisher ~port ~stream:"flights" in
  Relay.set_scope h ~stream:"flights" (fun _ -> Some [ "nothing-real" ]);
  let c = Relay.Client.connect ~port ~creds:[ ("role", "handheld") ] () in
  let denied what f =
    match f () with
    | _ -> Alcotest.failf "%s of an empty slice succeeded" what
    | exception Relay.Client.Error m ->
      check bool (what ^ " replies access denied") true
        (Omf_testkit.Strings.contains m "access denied")
  in
  denied "DESCRIBE" (fun () -> ignore (Relay.Client.describe c ~stream:"flights"));
  denied "SUBSCRIBE" (fun () ->
      ignore (Relay.Client.subscribe c ~stream:"flights"));
  check (Alcotest.list Alcotest.string) "the connection still serves LIST"
    [ "flights" ] (Relay.Client.list_streams c);
  Relay.Client.close c;
  Relay.Client.close pub

(* ADVERTISE validates the schema document: a malformed one is refused
   and creates no stream *)
let test_advertise_validates_schema () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let c = Relay.Client.connect ~port () in
  (match Relay.Client.advertise c ~stream:"bad" ~schema:"<junk/>" with
  | () -> Alcotest.fail "a malformed schema was advertised"
  | exception Relay.Client.Error _ -> ());
  check (Alcotest.list Alcotest.string) "no stream created" []
    (Relay.Client.list_streams c);
  Relay.Client.close c

let test_stream_listing () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let c = Relay.Client.connect ~port () in
  Relay.Client.advertise c ~stream:"weather" ~schema:Fx.schema_a;
  Relay.Client.advertise c ~stream:"flights" ~schema:Fx.schema_b;
  check (Alcotest.list Alcotest.string) "streams listed sorted"
    [ "flights"; "weather" ] (Relay.Client.list_streams c);
  Relay.Client.close c

(* set_scope names a stream some shard hosts *)
let test_set_scope_unknown_stream () =
  let h = Relay.start (Relay.listen ()) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  (match Relay.set_scope h ~stream:"nope" (fun _ -> None) with
  | () -> Alcotest.fail "set_scope on an unhosted stream succeeded"
  | exception Invalid_argument _ -> ());
  let c = Relay.Client.connect ~port:(Relay.port h) () in
  check (Alcotest.list Alcotest.string) "and pins nothing" []
    (Relay.Client.list_streams c);
  Relay.Client.close c

(* The paper's run-time format upgrade: the stream's schema gains a
   field and is re-advertised on a control connection while the
   publisher connection keeps sending. The running subscriber keeps
   decoding its own format (NDR match-by-name drops the new field); a
   subscriber that joins afterwards is served the new schema. *)
let test_runtime_format_upgrade () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub = Relay.Client.connect ~port () in
  Relay.Client.advertise pub ~stream:"flights" ~schema:Fx.schema_a;
  let sender =
    Endpoint.Sender.create
      (Relay.Client.publish pub ~stream:"flights")
      (Memory.create Abi.x86_64)
  in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let send v =
    Endpoint.Sender.send_value sender
      (Option.get (Catalog.find_format catalog "ASDOffEvent"))
      v
  in
  let old = subscribe ~port ~stream:"flights" Abi.sparc_32 in
  send Fx.value_a;
  check bool "v1 event decoded" true (Session.recv_subscriber old <> None);
  let schema_v2 =
    Omf_testkit.Strings.replace
      ~sub:{|<xsd:element name="eta" type="xsd:unsigned-long" />|}
      ~by:{|<xsd:element name="eta" type="xsd:unsigned-long" />
    <xsd:element name="gate" type="xsd:string" />|}
      Fx.schema_a
  in
  let control = Relay.Client.connect ~port () in
  Relay.Client.advertise control ~stream:"flights" ~schema:schema_v2;
  ignore (X2W.register_schema catalog schema_v2);
  let v2 = Value.set_field Fx.value_a "gate" (Value.String "T7") in
  send v2;
  (match Session.recv_subscriber old with
  | Some (_, v) ->
    check bool "old subscriber keeps decoding" true
      (Value.field v "dest" = Some (Value.String "KMCO"));
    check bool "old subscriber has no gate field" true
      (Value.field v "gate" = None)
  | None -> Alcotest.fail "old subscriber got nothing");
  let fresh = subscribe ~port ~stream:"flights" Abi.sparc_32 in
  send v2;
  (match Session.recv_subscriber fresh with
  | Some (_, v) ->
    check bool "new subscriber sees the gate" true
      (Value.field v "gate" = Some (Value.String "T7"))
  | None -> Alcotest.fail "new subscriber got nothing");
  List.iter Session.close_subscriber [ old; fresh ];
  Relay.Client.close control;
  Relay.Client.close pub

let test_stats_protocol () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let consumer = subscribe ~port ~stream:"flights" Abi.x86_64 in
  publish sender fmt 0;
  ignore (Session.recv_subscriber consumer);
  let c = Relay.Client.connect ~port () in
  let stats = Relay.Client.stats c in
  let get k = Option.value ~default:0 (List.assoc_opt k stats) in
  check bool "connections counted" true (get "connections" >= 3);
  check int "events relayed" 1 (get "events_relayed");
  check int "stream gauge: published (descriptor + event)" 2
    (get "stream.flights.published");
  check int "stream gauge: subscribers" 1 (get "stream.flights.subscribers");
  Relay.Client.close c;
  Session.close_subscriber consumer;
  Relay.Client.close pub

(* STATS names every key once, and the answering shard writes its own
   streams' gauges before the snapshot: right after an acked flush the
   tail is exact, even once an earlier STATS (or the periodic gauge
   tick) has written an older value into the counters. *)
let test_stats_keys_unique_and_live () =
  with_store_root @@ fun root ->
  let h =
    Relay.start (Relay.listen ~store:(Omf_store.Store.default_config ~root) ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub =
    Session.publisher ~acked:true (Session.config ~port ())
      ~stream:"flights" ~schema:Fx.schema_a Abi.x86_64
  in
  Fun.protect ~finally:(fun () -> Session.close_publisher pub)
  @@ fun () ->
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let send lo hi =
    for seq = lo to hi - 1 do
      Session.publish_value pub fmt (event seq)
    done;
    Session.flush_acked pub
  in
  send 0 5;
  let admin = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close admin) @@ fun () ->
  (* the first STATS writes the stream's gauges, the store tail among
     them: no gauge tick needs to have run *)
  let first = Relay.Client.stats admin in
  check bool "queue-depth gauge on the first STATS" true
    (List.mem_assoc "stream.flights.queue_depth" first);
  check int "store tail on the first STATS" 5
    (List.assoc "store.flights.tail" first);
  send 5 12;
  let stats = Relay.Client.stats admin in
  let keys = List.map fst stats in
  let twice k = List.length (List.filter (String.equal k) keys) > 1 in
  check (Alcotest.list Alcotest.string) "no STATS key appears twice" []
    (List.sort_uniq compare (List.filter twice keys));
  check bool "STATS keys sorted" true (keys = List.sort compare keys);
  check int "store tail read live after the acked flush" 12
    (List.assoc "store.flights.tail" stats)

(* Per-stream gauges are relay-wide: with [alpha] hosted on shard 0 and
   [beta] on shard 1, the STATS reply of either shard and [Relay.stats]
   (what /metrics serves) show both streams' gauges, each key once. *)
let test_stream_gauges_cross_shards () =
  let h = Relay.start (Relay.listen ~shards:2 ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  (* round-robin dealing: the first connection lands on shard 0, the
     second on shard 1, and each pins the stream it advertises *)
  let pa, sa, fa = make_publisher ~port ~stream:"alpha" in
  let pb, sb, fb = make_publisher ~port ~stream:"beta" in
  Fun.protect
    ~finally:(fun () ->
      Relay.Client.close pa;
      Relay.Client.close pb)
  @@ fun () ->
  (* the third connection lands on shard 0 and migrates to beta's *)
  let consumer = subscribe ~port ~stream:"beta" Abi.x86_64 in
  Fun.protect ~finally:(fun () -> Session.close_subscriber consumer) @@ fun () ->
  publish sa fa 0;
  publish sb fb 0;
  ignore (Session.recv_subscriber consumer);
  let sources =
    [ ("shard 0 STATS", fun () -> Relay.Client.stats pa)
    ; ("shard 1 STATS", fun () -> Relay.Client.stats pb)
    ; ("Relay.stats", fun () -> Relay.stats h) ]
  in
  List.iter
    (fun (what, stats) ->
      List.iter
        (fun (key, v) ->
          check int (what ^ ": " ^ key) v (poll_stat stats key v))
        [ ("stream.alpha.published", 2)
        ; ("stream.beta.published", 2)
        ; ("stream.beta.subscribers", 1) ];
      let keys = List.map fst (stats ()) in
      let twice k = List.length (List.filter (String.equal k) keys) > 1 in
      check (Alcotest.list Alcotest.string) (what ^ ": no key twice") []
        (List.sort_uniq compare (List.filter twice keys)))
    sources

(* The descriptor cache dedupes by content: a publisher that reconnects
   re-announces its descriptor, and (store-backed) a restart recovers
   the cached ones before the publisher returns. A late raw subscriber
   still receives each distinct descriptor exactly once, all before
   its first message. *)
let descriptor_cache_dedupes ~store () =
  with_store_root @@ fun root ->
  let store = if store then Some (Omf_store.Store.default_config ~root) else None in
  let round h abi seq =
    let pub, sender, fmt =
      make_publisher_abi ~host:"127.0.0.1" ~abi ~port:(Relay.port h)
        ~stream:"flights" ()
    in
    publish sender fmt seq;
    ignore (wait_stat_on pub "stream.flights.published" 1);
    Relay.Client.close pub
  in
  (* two distinct descriptors (one per sender ABI), each announced on
     more than one connection *)
  let h = Relay.start (Relay.listen ?store ()) in
  round h Abi.x86_64 0;
  round h Abi.sparc_32 1;
  round h Abi.x86_64 2;
  let h =
    if Option.is_some store then begin
      Relay.stop h;
      let h = Relay.start (Relay.listen ?store ()) in
      round h Abi.sparc_32 3;
      h
    end
    else h
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  Fun.protect ~finally:(fun () -> Relay.Client.close pub) @@ fun () ->
  publish sender fmt 4;
  let sub = Relay.Client.connect ~port ~io_timeout_s:10.0 () in
  Fun.protect ~finally:(fun () -> Relay.Client.close sub) @@ fun () ->
  let _schema, link = Relay.Client.subscribe sub ~stream:"flights" in
  publish sender fmt 5;
  let rec descriptors acc =
    match Link.recv link with
    | None -> Alcotest.fail "stream closed before its first message"
    | Some f when Bytes.get f 0 = Proto.frame_descriptor ->
      (* the link lends [f] until the next recv *)
      descriptors (Bytes.copy f :: acc)
    | Some _ -> List.rev acc
  in
  let ds = descriptors [] in
  check int "one D frame per distinct descriptor" 2 (List.length ds);
  check bool "the two are distinct" false
    (Bytes.equal (List.nth ds 0) (List.nth ds 1))

(* ------------------------------------------------------------------ *)
(* Acceptance: 64 concurrent TCP subscribers, zero loss, in order       *)
(* ------------------------------------------------------------------ *)

let block_zero_loss_in_order ?shards ~nsubs () =
  let nevents = 50 in
  (* a tight queue bound forces the Block policy to pause and resume
     the publisher repeatedly while subscribers drain *)
  let h =
    Relay.start (Relay.listen ?shards ~policy:Relay.Block ~max_queue:4 ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let received = Array.make nsubs 0 in
  let ordered = Array.make nsubs true in
  let threads =
    Array.init nsubs (fun i ->
        Thread.create
          (fun () ->
            let abi = List.nth Abi.all (i mod List.length Abi.all) in
            let consumer =
              subscribe ~port ~stream:"flights" abi
            in
            let rec go prev =
              if prev < nevents - 1 then
                match Session.recv_subscriber consumer with
                | None -> ()
                | Some (_, v) ->
                  let seq = seq_of v in
                  received.(i) <- received.(i) + 1;
                  if seq <> prev + 1 then ordered.(i) <- false;
                  go seq
            in
            go (-1);
            Session.close_subscriber consumer)
          ())
  in
  ignore (wait_stat ~port "stream.flights.subscribers" nsubs);
  for seq = 0 to nevents - 1 do
    publish sender fmt seq
  done;
  Array.iter Thread.join threads;
  Array.iteri
    (fun i n -> check int (Printf.sprintf "subscriber %d event count" i) nevents n)
    received;
  check bool "every subscriber saw 0..49 strictly in order" true
    (Array.for_all Fun.id ordered);
  check_handoffs h;
  let c = Relay.Client.connect ~port () in
  let stats = Relay.Client.stats c in
  check int "no drops under block" 0
    (Option.value ~default:0 (List.assoc_opt "frames_dropped" stats));
  check int "no evictions under block" 0
    (Option.value ~default:0 (List.assoc_opt "subscribers_evicted" stats));
  Relay.Client.close c;
  Relay.Client.close pub

let test_64_subscribers_zero_loss_in_order () =
  block_zero_loss_in_order ~nsubs:64 ()

(* ------------------------------------------------------------------ *)
(* Slow consumers: eviction and shedding                                *)
(* ------------------------------------------------------------------ *)

(* a subscriber that never reads; ~64 KiB events overwhelm the socket
   buffers (SO_SNDBUF forced small) and then the bounded queue *)
let test_evict_slow_consumer () =
  let h =
    (* the grace window needs slack over the publish pacing below: under
       a loaded test host the reading consumer's backlog can take a few
       hundred ms to drain, and it must never be the one evicted *)
    Relay.start
      (Relay.listen ~policy:Relay.Evict_slow ~max_queue:8 ~evict_grace_s:0.75
         ~sndbuf:8192 ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let stalled = Relay.Client.connect ~port () in
  ignore (Relay.Client.subscribe stalled ~stream:"flights");
  let nevents = 80 in
  let healthy_done = ref false in
  let healthy_count = Atomic.make 0 in
  let healthy =
    Thread.create
      (fun () ->
        let consumer =
          subscribe ~port ~stream:"flights" Abi.x86_64
        in
        let rec go prev =
          if prev < nevents - 1 then
            match Session.recv_subscriber consumer with
            | None -> ()
            | Some (_, v) ->
              Atomic.incr healthy_count;
              go (seq_of v)
        in
        go (-1);
        healthy_done := true;
        Session.close_subscriber consumer)
      ()
  in
  ignore (wait_stat ~port "stream.flights.subscribers" 2);
  for seq = 0 to nevents - 1 do
    publish sender fmt ~pad:65536 seq;
    (* pace the burst on the reading consumer: the next event goes out
       once it has this one, so its backlog never exceeds one event
       however loaded the host; the stalled one (whose socket buffers
       fill no matter what) stays over the watermark for the whole
       grace window and is evicted *)
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get healthy_count <= seq do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "healthy subscriber stuck at %d of %d events"
          (Atomic.get healthy_count) (seq + 1);
      Thread.delay 0.0005
    done
  done;
  Thread.join healthy;
  ignore (wait_stat ~port "subscribers_evicted" 1);
  check bool "healthy subscriber unaffected" true !healthy_done;
  check int "healthy subscriber got every event" nevents
    (Atomic.get healthy_count);
  check int "stalled subscriber evicted" 1
    (wait_stat ~port "subscribers_evicted" 1);
  Relay.Client.close stalled;
  Relay.Client.close pub

(* Block congestion is per stream: a never-reading subscriber pauses
   only its own stream's publisher, and closing it (without draining
   its queue) resumes that publisher, so the stream's other subscriber
   still receives every frame in order. The publisher is paced so the
   reading subscriber keeps up and is never the one holding the pause:
   only the close can lift it. *)
let test_block_isolation_and_resume_on_close () =
  let h =
    Relay.start (Relay.listen ~policy:Relay.Block ~max_queue:4 ~sndbuf:8192 ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pa, sa, fa = make_publisher ~port ~stream:"alpha" in
  let pb, sb, fb = make_publisher ~port ~stream:"beta" in
  let stalled = Relay.Client.connect ~port () in
  ignore (Relay.Client.subscribe stalled ~stream:"alpha");
  let reader, ra = timed_consumer ~port ~stream:"alpha" Abi.sparc_32 in
  let bc, rb = timed_consumer ~port ~stream:"beta" Abi.arm_32 in
  (* STATS on its own connection: the publishers' ones get paused *)
  let admin = Relay.Client.connect ~port ~io_timeout_s:10.0 () in
  let stat key =
    Option.value ~default:0 (List.assoc_opt key (Relay.Client.stats admin))
  in
  ignore (wait_stat_on admin "stream.alpha.subscribers" 2);
  let nevents = 2000 in
  let a_pub =
    Thread.create
      (fun () ->
        for seq = 0 to nevents - 1 do
          publish sa fa ~pad:1024 seq;
          Thread.delay 0.0001
        done)
      ()
  in
  let seen = ref [] in
  let a_read =
    Thread.create
      (fun () ->
        try
          for _ = 1 to nevents do
            match Endpoint.Receiver.recv_value ra with
            | Some (_, v) -> seen := seq_of v :: !seen
            | None -> ()
          done
        with Link.Timeout | Link.Closed -> ())
      ()
  in
  (* the stalled queue crosses the watermark, then alpha's published
     count stops moving: the relay no longer reads its publisher *)
  ignore (wait_stat_on admin "stream.alpha.queue_depth" 4);
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec frozen prev =
    Thread.delay 0.05;
    let now = stat "stream.alpha.published" in
    if now = prev then now
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "alpha was never paused"
    else frozen now
  in
  let paused_at = frozen (stat "stream.alpha.published") in
  check bool "alpha paused before its publisher finished" true
    (paused_at < nevents + 1);
  for seq = 0 to 19 do
    publish sb fb seq
  done;
  for expect = 0 to 19 do
    match Endpoint.Receiver.recv_value rb with
    | Some (_, v) ->
      check int "beta flows while alpha is paused" expect (seq_of v)
    | None -> Alcotest.fail "beta closed"
  done;
  check int "alpha stayed paused" paused_at (stat "stream.alpha.published");
  (* the reader drains what was relayed before the pause (one of the
     published frames is the descriptor) *)
  while List.length !seen < paused_at - 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Relay.Client.close stalled;
  ignore (wait_stat_on admin "stream.alpha.published" (nevents + 1));
  Thread.join a_pub;
  Thread.join a_read;
  check (Alcotest.list int) "the reading subscriber got every frame in order"
    (List.init nevents Fun.id) (List.rev !seen);
  check int "the closed subscriber left the stream" 1
    (stat "stream.alpha.subscribers");
  List.iter Relay.Client.close [ admin; reader; bc; pa; pb ]

(* With [~auth], both links are sealed: the subscriber's queue seals a
   frame when it first writes it, so a shed frame never took a nonce
   and the survivors open in sequence. *)
let drop_oldest_keeps_stream_decodable ?auth () =
  let h =
    Relay.start
      (Relay.listen ~policy:Relay.Drop_oldest ~max_queue:8 ~sndbuf:8192
         ?auth_keys:(Option.map (fun a -> [ a ]) auth) ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt =
    make_publisher_abi ?auth ~host:"127.0.0.1" ~abi:Abi.x86_64 ~port
      ~stream:"flights" ()
  in
  let lagging =
    subscribe ?auth ~port ~stream:"flights" Abi.sparc_32
  in
  ignore (wait_stat ~port "stream.flights.subscribers" 1);
  let nevents = 80 in
  for seq = 0 to nevents - 1 do
    publish sender fmt ~pad:65536 seq
  done;
  ignore (wait_stat ~port "events_relayed" nevents);
  ignore (wait_stat ~port "frames_dropped" 1);
  (* now start reading: dropped frames leave gaps but the descriptor
     was never shed, so everything that survived still decodes, in
     order, and the newest event is among them *)
  let seen = ref [] in
  let rec go () =
    match Session.recv_subscriber lagging with
    | None -> ()
    | Some (_, v) ->
      seen := seq_of v :: !seen;
      if seq_of v < nevents - 1 then go ()
    | exception e ->
      Alcotest.failf "subscriber failed after %d events: %s"
        (List.length !seen) (Printexc.to_string e)
  in
  go ();
  let seen = List.rev !seen in
  check bool "some events shed" true (List.length seen < nevents);
  check bool "survivors decode in order" true
    (List.sort compare seen = seen);
  check bool "newest event survived" true
    (List.mem (nevents - 1) seen);
  Session.close_subscriber lagging;
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Chunked stored replay                                                *)
(* ------------------------------------------------------------------ *)

(* A SUBSCRIBE from=0 against a backlog much larger than the queue
   watermark: replay is paced in chunks from the writable callback, so
   the subscriber still receives every stored frame, in order, while
   the relay's queue never has to hold the whole backlog at once. *)
let chunked_replay_backpressure ?shards () =
  with_store_root @@ fun root ->
  let store = Omf_store.Store.default_config ~root in
  let nevents = 400 in
  let max_queue = 16 in
  let h = Relay.start (Relay.listen ?shards ~max_queue ~store ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  for seq = 0 to nevents - 1 do
    publish sender fmt seq
  done;
  ignore (wait_stat_on pub "store_appends" nevents);
  (* replay the whole backlog through a 16-frame watermark *)
  let sub = Relay.Client.connect ~port () in
  let start, _schema, link =
    Relay.Client.subscribe_from sub ~stream:"flights" ~from:0
  in
  check bool "store-backed reply carries the offset" true (start = Some 0);
  let catalog = Catalog.create Abi.arm_32 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let receiver =
    Endpoint.Receiver.create link
      (Catalog.registry catalog)
      (Memory.create Abi.arm_32)
  in
  for expect = 0 to nevents - 1 do
    match Endpoint.Receiver.recv_value receiver with
    | Some (_, v) -> check int "in order, zero loss" expect (seq_of v)
    | None -> Alcotest.failf "stream closed at %d" expect
  done;
  (* the replay really was chunked, and it finished *)
  let stats = Relay.Client.stats pub in
  let stat key = Option.value ~default:0 (List.assoc_opt key stats) in
  check int "replay completed" 1 (stat "store_replay_done");
  check int "every frame came from the store" nevents
    (stat "store_replay_frames");
  check bool "paced in multiple chunks" true (stat "store_replay_chunks" > 1);
  check_handoffs h;
  Relay.Client.close sub;
  Relay.Client.close pub

let test_chunked_replay_backpressure () = chunked_replay_backpressure ()

(* ------------------------------------------------------------------ *)
(* Graceful drain-and-shutdown                                          *)
(* ------------------------------------------------------------------ *)

let test_graceful_drain_on_shutdown () =
  let h = Relay.start (Relay.listen ~sndbuf:8192 ~drain_s:10.0 ()) in
  let port = Relay.port h in
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let consumer = subscribe ~port ~stream:"flights" Abi.x86_64 in
  let nevents = 100 in
  for seq = 0 to nevents - 1 do
    publish sender fmt ~pad:4096 seq
  done;
  (* wait until the relay has ingested everything, then shut down while
     most frames are still queued for the (unread) subscriber *)
  ignore (wait_stat ~port "events_relayed" nevents);
  let stopper = Thread.create (fun () -> Relay.stop h) () in
  let count = ref 0 in
  let rec go () =
    match Session.recv_subscriber consumer with
    | Some _ ->
      incr count;
      go ()
    | None | (exception Session.Gave_up _) -> ()
  in
  go ();
  Thread.join stopper;
  check int "drain delivered every queued event before closing" nevents !count;
  Session.close_subscriber consumer;
  (try Relay.Client.close pub with _ -> ())

(* ------------------------------------------------------------------ *)
(* Overload governor (pure state machine; doc/OVERLOAD.md)              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Relaying from the read buffer                                        *)
(* ------------------------------------------------------------------ *)

(* a distinct 16 KiB message frame per index: the relay treats ['M']
   bodies as opaque, so any bytes do *)
let bulk_frame i =
  Bytes.init 16384 (fun j ->
      if j = 0 then 'M' else Char.chr (((i * 131) + (j * 7) + (j / 256)) land 0xFF))

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then
      match Unix.read fd buf off len with
      | 0 -> Alcotest.fail "relay closed the subscriber"
      | n -> go (off + n) (len - n)
  in
  go off len

let read_raw_frame fd =
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  let body = Bytes.create (Frame.read_header hdr 0) in
  really_read fd body 0 (Bytes.length body);
  body

(* a subscriber on a bare socket with a small receive buffer, so it can
   stall without reading: HELLO and SUBSCRIBE, replies consumed *)
let raw_subscriber ~port ~stream =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let send body =
    let w = Frame.encode (Bytes.of_string body) in
    ignore (Unix.write fd w 0 (Bytes.length w))
  in
  send "h";
  check Alcotest.char "HELLO answered" 'o' (Bytes.get (read_raw_frame fd) 0);
  send ("s" ^ stream);
  check Alcotest.char "SUBSCRIBE answered" 'o' (Bytes.get (read_raw_frame fd) 0);
  fd

(* A subscriber that is not reading holds the frames the relay queued
   for it while the publisher's later reads reuse the buffer those
   frames arrived in: each must still arrive byte-identical and in
   order once the subscriber resumes. Fails if a queued slice still
   borrows the read buffer after its read. *)
let test_stalled_subscriber_keeps_frames () =
  let n = 48 in
  let h = Relay.start (Relay.listen ~sndbuf:4096 ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub = Relay.Client.connect ~port () in
  Relay.Client.advertise pub ~stream:"bulk" ~schema:Fx.schema_a;
  let link = Relay.Client.publish pub ~stream:"bulk" in
  let sub = raw_subscriber ~port ~stream:"bulk" in
  Fun.protect ~finally:(fun () -> Unix.close sub) @@ fun () ->
  for i = 0 to n - 1 do
    Link.send link (bulk_frame i)
  done;
  ignore (wait_stat_on pub "events_relayed" n);
  for i = 0 to n - 1 do
    if not (Bytes.equal (read_raw_frame sub) (bulk_frame i)) then
      Alcotest.failf "frame %d arrived changed" i
  done;
  Relay.Client.close pub

(* Two different frames that land at the same offset of the publisher's
   read buffer (each read holds one whole frame, so both start at
   offset 4): a comp=lz subscriber must get each its own block, not the
   block compressed for the first. *)
let test_compressed_same_offset () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub = Relay.Client.connect ~port () in
  Relay.Client.advertise pub ~stream:"lz" ~schema:Fx.schema_a;
  let link = Relay.Client.publish pub ~stream:"lz" in
  let client = Relay.Client.connect ~port ~compress:true ~io_timeout_s:10.0 () in
  check bool "comp=lz negotiated" true (Relay.Client.compressed client);
  let _schema, sub = Relay.Client.subscribe client ~stream:"lz" in
  let frame i = Bytes.sub (bulk_frame i) 0 2048 in
  List.iter
    (fun i ->
      Link.send link (frame i);
      match Link.recv sub with
      | Some got ->
        check bool (Printf.sprintf "frame %d intact" i) true
          (Bytes.equal got (frame i))
      | None -> Alcotest.failf "frame %d never arrived" i)
    [ 1; 2; 3 ];
  Relay.Client.close client;
  Relay.Client.close pub

(* A compressing subscriber of a compressing publisher gets the
   publisher's own block, byte for byte. The publisher sends bodies as
   stored blocks (tag 0, the body verbatim), which the relay's own
   compressor never makes of these compressible bodies, and as lz
   blocks. What the relay re-encodes it compresses afresh: a stored
   [from=0] replay comes back as the relay's blocks, and a scoped
   subscriber's schema reply, which decodes to the schema a plain
   connection with the same credentials is served. *)
let test_forwarded_block () =
  with_store_root @@ fun root ->
  let store = Omf_store.Store.default_config ~root in
  let h = Relay.start (Relay.listen ~store ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let connect ?creds () =
    Relay.Client.connect ~port ?creds ~compress:true ~io_timeout_s:10.0 ()
  in
  let pub = connect () in
  Relay.Client.advertise pub ~stream:"lz" ~schema:Fx.schema_a;
  ignore (Relay.Client.publish pub ~stream:"lz");
  let live = connect () in
  ignore (Relay.Client.subscribe live ~stream:"lz");
  let body i = Bytes.of_string ("M" ^ String.make 700 (Char.chr (97 + i))) in
  let stored i = Bytes.cat (Bytes.make 1 '\000') (body i) in
  let blocks =
    [ stored 0; Omf_compress.Compress.compress (body 1); stored 2 ]
  in
  List.iteri
    (fun i blk ->
      let w = Frame.encode blk in
      ignore (Unix.write (Relay.Client.fd pub) w 0 (Bytes.length w));
      check bool
        (Printf.sprintf "block %d forwarded as sent" i)
        true
        (Bytes.equal (read_raw_frame (Relay.Client.fd live)) blk))
    blocks;
  check bool "the relay's block of a body is not the stored one" false
    (Bytes.equal (Omf_compress.Compress.compress (body 0)) (stored 0));
  ignore (wait_stat ~port "store_appends" 3);
  let replay = connect () in
  let start, _, _ = Relay.Client.subscribe_from replay ~stream:"lz" ~from:0 in
  check bool "replay starts at 0" true (start = Some 0);
  for i = 0 to 2 do
    let blk = read_raw_frame (Relay.Client.fd replay) in
    check bool
      (Printf.sprintf "replayed block %d is the relay's" i)
      true
      (Bytes.equal blk (Omf_compress.Compress.compress (body i)));
    check bool
      (Printf.sprintf "replayed block %d inflates to the body" i)
      true
      (Bytes.equal (Omf_compress.Compress.decompress blk) (body i))
  done;
  Relay.set_scope h ~stream:"lz" (fun creds ->
      match List.assoc_opt "role" creds with
      | Some "handheld" -> Some [ "fltNum"; "org"; "dest" ]
      | _ -> None);
  let creds = [ ("role", "handheld") ] in
  let scoped = connect ~creds () in
  let plain = Relay.Client.connect ~port ~creds () in
  let lz_schema, _ = Relay.Client.subscribe scoped ~stream:"lz" in
  let plain_schema, _ = Relay.Client.subscribe plain ~stream:"lz" in
  check Alcotest.string "scoped schema, compressed = plain" plain_schema
    lz_schema;
  check bool "the scoped schema is reduced" false
    (String.equal lz_schema Fx.schema_a);
  List.iter Relay.Client.close [ plain; scoped; replay; live; pub ]

(* The shard's words allocated per relayed event, from its own
   [gc.minor_words] in STATS ({!Omf_testkit.Relaypair}): paper-a's event
   frame on plain links, and secure-a1k's (1 KiB compressible pad) on
   HMAC and comp=lz links, as bench/e2e's secure-compressed workload
   sends it. Seen on one 2-core machine: plain 4-6 words (71 when every
   frame boxed options and closures), mac+comp about 11 (32-46 when
   each sealed queue got a fresh sealed copy of the frame, 307 when the
   relay inflated into fresh buffers and compressed every body again);
   the budgets leave room for a loaded machine, whose smaller batches
   pay more loop rounds per event. *)
let check_relay_alloc ~secure ~budget () =
  let module Shapes = Omf_testkit.Shapes in
  let mode = List.nth Omf_testkit.Linkpair.modes (if secure then 3 else 0) in
  let shape = List.nth Shapes.bench (if secure then 3 else 0) in
  let words =
    Omf_testkit.Relaypair.words_per_event mode (Shapes.event_frame shape)
  in
  Printf.printf "%s links: %.1f words allocated per relayed event (budget %d)\n"
    mode.name words budget;
  if words > Float.of_int budget then
    Alcotest.failf "%.1f words per relayed event, over the budget of %d" words
      budget

let test_governor_hysteresis () =
  let module G = Relay.Governor in
  (* budget 1000: degraded at 700 (recover < 500), overloaded at 900
     (recover < 700) *)
  let g = G.create (G.config ~budget:1000 ()) in
  let transitions = ref [] in
  G.on_transition g (fun prev next ->
      transitions := (G.health_name prev, G.health_name next) :: !transitions);
  let health () = G.health_level (G.health g) in
  G.update g 699;
  check int "below degraded_hi stays healthy" 0 (health ());
  G.update g 700;
  check int "700 degrades" 1 (health ());
  (* hysteresis: dipping back under the high watermark is not recovery *)
  G.update g 550;
  check int "550 still degraded" 1 (health ());
  G.update g 499;
  check int "under 500 recovers" 0 (health ());
  G.update g 900;
  check int "900 jumps straight to overloaded" 2 (health ());
  G.update g 700;
  check int "700 still overloaded (recover < 700)" 2 (health ());
  G.update g 699;
  check int "699 steps down to degraded" 1 (health ());
  G.update g 399;
  check int "399 fully recovers" 0 (health ());
  check bool "every transition fired" true
    (List.rev !transitions
    = [ ("healthy", "degraded"); ("degraded", "healthy")
      ; ("healthy", "overloaded"); ("overloaded", "degraded")
      ; ("degraded", "healthy") ]);
  (* [used] is the total the last update reported *)
  G.update g 0;
  check int "used reads the update" 0 (G.used g);
  (* a disabled governor tracks usage but never changes health *)
  let off = G.create (G.config ~budget:0 ()) in
  G.update off 1_000_000;
  check int "disabled stays healthy" 0 (G.health_level (G.health off));
  check bool "disabled reports so" false (G.enabled off)

(* the busy retry hint adapts to the observed drain rate: used bytes /
   drained-bytes-per-second, clamped to [configured, 10x configured] *)
let test_governor_adaptive_retry () =
  let module G = Relay.Governor in
  let g = G.create (G.config ~budget:10_000 ~busy_retry_ms:100 ()) in
  check int "no drain rate yet: the configured floor" 100 (G.busy_retry_ms g);
  G.update g 1000;
  G.note_tick g ~now:10.0;
  (* first tick only arms the window; still the floor *)
  check int "first tick arms, floor holds" 100 (G.busy_retry_ms g);
  G.update g 500;
  G.note_tick g ~now:11.0;
  check bool "rate observed" true (abs_float (G.drain_rate g -. 500.0) < 1e-6);
  (* 500 bytes still queued at 500 B/s -> ~1000ms estimate *)
  check int "estimate = used / rate" 1000 (G.busy_retry_ms g);
  (* a much faster drain pulls the hint down toward the floor *)
  G.update g 50;
  G.note_tick g ~now:12.0;
  (* EWMA(0.5): (500 + 450) / 2 = 475 B/s; 50 B left -> ~105ms *)
  let hint = G.busy_retry_ms g in
  check bool "fast drain shrinks the hint" true (hint >= 100 && hint < 200);
  G.update g 0;
  check int "nothing queued: floor again" 100 (G.busy_retry_ms g);
  (* a stalled queue cannot push the hint past the 10x ceiling *)
  G.update g 10_000;
  G.note_tick g ~now:13.0;
  G.update g 9_999;
  G.note_tick g ~now:14.0;
  check int "stall clamps at 10x the floor" 1000 (G.busy_retry_ms g);
  (* sub-10ms ticks are ignored so a burst of gauge refreshes cannot
     produce a garbage rate *)
  let before = G.drain_rate g in
  G.update g 9_899;
  G.note_tick g ~now:14.001;
  check bool "too-close tick ignored" true
    (abs_float (G.drain_rate g -. before) < 1e-6)

let test_governor_overload_sheds_publish () =
  (* a tiny budget + a subscriber that never reads: publishing into the
     backlog must flip the shard to overloaded and shed PUBLISH with a
     retryable busy reply, while control traffic (STATS) still flows *)
  let handle =
    Relay.start
      (Relay.listen ~policy:Relay.Block ~max_queue:100_000 ~sndbuf:4096
         ~governor:(Relay.Governor.config ~budget:16_384 ~busy_retry_ms:50 ())
         ())
  in
  Fun.protect ~finally:(fun () -> Relay.stop handle) @@ fun () ->
  let port = Relay.port handle in
  let admin = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close admin) @@ fun () ->
  Relay.Client.advertise admin ~stream:"storm" ~schema:Fx.schema_a;
  (* subscriber that never reads: its queue absorbs the budget *)
  let sub = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close sub) @@ fun () ->
  let _schema, _link = Relay.Client.subscribe sub ~stream:"storm" in
  let pub = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close pub) @@ fun () ->
  let link = Relay.Client.publish pub ~stream:"storm" in
  let frame = Bytes.make 1024 'x' in
  Bytes.set frame 0 'M';
  (* pump from a side thread: once the shard overloads it pauses this
     publisher's reads, so send eventually blocks — closing the socket
     in the finalizers unblocks it *)
  let stop = ref false in
  ignore
    (Thread.create
       (fun () ->
         try
           while not !stop do
             Omf_transport.Link.send link frame
           done
         with _ -> ())
       ());
  (* wait for the governor to notice the backlog *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    let stats = Relay.Client.stats admin in
    if List.assoc_opt "governor_health" stats = Some 2 then ()
    else if Unix.gettimeofday () > deadline then begin
      stop := true;
      Alcotest.fail "governor never reached overloaded"
    end
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ();
  stop := true;
  (* an overloaded shard refuses new PUBLISH retryably... *)
  let late = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close late) @@ fun () ->
  (match Relay.Client.publish late ~stream:"storm" with
  | _ -> Alcotest.fail "expected Busy from an overloaded relay"
  | exception Relay.Client.Busy { retry_ms } ->
    check int "busy carries the configured retry hint" 50 retry_ms);
  (* ...but control traffic still flows (STATS answered above, and the
     shed was counted) *)
  let stats = Relay.Client.stats admin in
  check bool "publish_busy counted" true
    (match List.assoc_opt "publish_busy" stats with
    | Some n -> n >= 1
    | None -> false);
  check bool "governor budget gauge exported" true
    (List.assoc_opt "governor_budget_bytes" stats = Some 16_384)

(* the governor's [used] is each reactor's sum of its connections'
   unwritten queue bytes ([Reactor.queued_bytes]), which enqueue, write,
   shed, eviction, close and the shard handoff all move; whatever mix of
   those a connection's life ends in, once every subscriber is gone the
   sum is exactly 0 — not merely small *)
let governor_accounting_symmetry ?shards () =
  let wait_used_zero h =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec go () =
      if Relay.governor_used h <> 0 && Unix.gettimeofday () < deadline then begin
        Thread.delay 0.01;
        go ()
      end
    in
    go ();
    Relay.governor_used h
  in
  let big_budget = Relay.Governor.config ~budget:(1 lsl 30) () in
  let nevents = 40 in
  (* phase 1: drop-oldest sheds + a draining consumer + closes *)
  (let h =
     Relay.start
       (Relay.listen ?shards ~policy:Relay.Drop_oldest ~max_queue:8
          ~sndbuf:8192 ~governor:big_budget ())
   in
   Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
   let port = Relay.port h in
   let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
   let stalled = Relay.Client.connect ~port () in
   ignore (Relay.Client.subscribe stalled ~stream:"flights");
   let healthy =
     Thread.create
       (fun () ->
         let consumer =
           subscribe ~port ~stream:"flights" Abi.x86_64
         in
         let rec go prev =
           if prev < nevents - 1 then
             match Session.recv_subscriber consumer with
             | None -> ()
             | Some (_, v) -> go (seq_of v)
         in
         go (-1);
         Session.close_subscriber consumer)
       ()
   in
   ignore (wait_stat ~port "stream.flights.subscribers" 2);
   for seq = 0 to nevents - 1 do
     publish sender fmt ~pad:65536 seq
   done;
   ignore (wait_stat ~port "frames_dropped" 1);
   Thread.join healthy;
   Relay.Client.close stalled;
   Relay.Client.close pub;
   check int "used returns to 0 after sheds+writes+closes" 0
     (wait_used_zero h);
   check_handoffs h);
  (* phase 2: a slow-consumer eviction must also hand its bytes back *)
  let h =
    Relay.start
      (Relay.listen ?shards ~policy:Relay.Evict_slow ~max_queue:8
         ~evict_grace_s:0.2 ~sndbuf:8192 ~governor:big_budget ())
  in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let port = Relay.port h in
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let stalled = Relay.Client.connect ~port () in
  ignore (Relay.Client.subscribe stalled ~stream:"flights");
  ignore (wait_stat ~port "stream.flights.subscribers" 1);
  for seq = 0 to nevents - 1 do
    publish sender fmt ~pad:65536 seq
  done;
  ignore (wait_stat ~port "subscribers_evicted" 1);
  Relay.Client.close stalled;
  Relay.Client.close pub;
  check int "used returns to 0 after an eviction" 0 (wait_used_zero h);
  check_handoffs h

let test_governor_accounting_symmetry () = governor_accounting_symmetry ()

(* ------------------------------------------------------------------ *)
(* Control protocol codec (Relay_proto)                                 *)
(* ------------------------------------------------------------------ *)

let ctx =
  { Relay.Trace.trace_id = 0x0123456789abcdefL; span_id = 1L; sampled = true }

let publish_req ?(acks = false) ?trace stream =
  Proto.Publish { stream; acks; trace }

let subscribe_req ?from stream = Proto.Subscribe { stream; from }

(* one instance of every command and reply, with the exact bytes the
   hand-written encoders this module replaced put on the wire *)
let test_proto_golden () =
  let schema = "<s/>" in
  let requests =
    [ (Proto.Hello [ ("role", "display"); ("user", "x=y") ],
       "hrole=display\nuser=x=y")
    ; (Proto.Hello [ ("auth", "hmac"); ("key-id", "k1") ], "hauth=hmac\nkey-id=k1")
    ; (Proto.Advertise { stream = "flights"; meta = []; schema }, "aflights\n<s/>")
    ; ( Proto.Advertise
          { stream = "flights"
          ; meta = [ ("subject", "fl"); ("version", "3"); ("fingerprint", "ab12") ]
          ; schema }
      , "aflights\nsubject=fl\nversion=3\nfingerprint=ab12\n<s/>" )
    ; (publish_req "flights", "pflights")
    ; ( publish_req ~trace:ctx "flights"
      , "pflights\ntrace=0123456789abcdef-0000000000000001-01" )
    ; (publish_req ~acks:true "flights", "pflights\nacks=1")
    ; (subscribe_req "flights", "sflights")
    ; (subscribe_req ~from:(-1) "flights", "sflights\nfrom=-1")
    ; (Proto.Stats, "t")
    ; (Proto.List, "l")
    ; (Proto.Describe "flights", "qflights")
    ; (Proto.Promote "flights", "mflights") ]
  in
  List.iter
    (fun (req, wire) ->
      check Alcotest.string wire wire (Bytes.to_string (Proto.encode_request req));
      check bool ("decodes " ^ wire) true
        (Proto.decode_request (Bytes.of_string wire) = Ok req))
    requests;
  (* the advertisement is read with DESCRIBE: SUBSCRIBE ignores a
     [meta=1] option like any other it does not know *)
  check bool "subscribe ignores meta=1" true
    (Proto.decode_request (Bytes.of_string "sflights\nmeta=1")
    = Ok (subscribe_req "flights"));
  let replies =
    [ (Proto.Ok "", "o")
    ; (Proto.Err "publish: unknown stream nope", "epublish: unknown stream nope")
    ; (Proto.Busy 250, "bretry_ms=250")
    ; (Proto.Ack 1, "k1") ]
  in
  List.iter
    (fun (r, wire) ->
      check Alcotest.string wire wire (Bytes.to_string (Proto.encode_reply r));
      check bool ("decodes " ^ wire) true
        (Proto.decode_reply (Bytes.of_string wire) = Ok r))
    replies;
  let refusal ~current stream meta =
    match Proto.gate_advert ~relay_id:"aaaa" ~current:(Some current) stream meta with
    | Error msg -> msg
    | Ok _ -> "accepted"
  in
  let bodies =
    [ (Proto.encode_banner { mac = false; comp = false }, "omf-relay 1")
    ; (Proto.encode_banner { mac = true; comp = true }, "omf-relay 1 mac comp=lz")
    ; (Proto.encode_published None, "")
    ; (Proto.encode_published (Some 1), "durable=1")
    ; ( Proto.encode_schema_reply
          { offset = Some 0; meta = [ ("subject", "s") ]; schema }
      , "offset=0\nsubject=s\n<s/>" )
    ; (Proto.encode_epoch 3, "epoch=3")
    ; (Proto.encode_list [ "flights"; "mirr" ], "flights\nmirr")
    ; (Proto.encode_stats [ ("errors", 2) ], "errors 2\n")
    ; (Proto.read_only "publish" "mirr" "ffff", "publish mirr: read-only (mirrored from ffff)")
    ; ( Proto.stale_mirror "mirr" "ffff" 2
      , "publish mirr: stale mirror link (stream is ffff@2 here)" )
    ; ( refusal ~current:[ ("origin", "ffff"); ("epoch", "2") ] "mirr"
          [ ("origin", "bbbb"); ("epoch", "1") ]
      , "advertise mirr: stale epoch 1 (held by ffff at epoch 2)" )
    ; ( refusal ~current:[ ("origin", "ffff"); ("epoch", "2") ] "mirr" []
      , "advertise mirr: read-only (mirrored from ffff)" )
    ; ( refusal ~current:[] "loop" [ ("origin", "aaaa") ]
      , "advertise loop: origin loop (stream originates here)" ) ]
  in
  List.iter (fun (got, want) -> check Alcotest.string want want got) bodies

(* generators: names and values never hold the separators their field
   is delimited by (a newline; '=' in a key; '<' in a metadata line) *)
let gen_text ?(avoid = "\n") n =
  QCheck.Gen.(
    string_size
      ~gen:(map (fun c -> if String.contains avoid c then '.' else c) printable)
      (0 -- n))

let gen_key =
  QCheck.Gen.(
    string_size ~gen:(oneofl (List.of_seq (String.to_seq "abcxyz019-_")))
      (1 -- 8))

let gen_meta =
  QCheck.Gen.(list_size (0 -- 4) (pair gen_key (gen_text ~avoid:"\n<" 12)))

let gen_schema = QCheck.Gen.(map (fun s -> "<" ^ s) (string_size (0 -- 40)))

let gen_ctx =
  QCheck.Gen.(
    map3
      (fun trace_id span_id sampled ->
        { Relay.Trace.trace_id; span_id; sampled })
      ui64 ui64 bool)

let gen_request =
  let open QCheck.Gen in
  let stream = gen_text 12 in
  let creds = list_size (0 -- 4) (pair (gen_text ~avoid:"\n=" 8) (gen_text 8)) in
  oneof
    [ map (fun c -> Proto.Hello c) creds
    ; map3
        (fun stream meta schema -> Proto.Advertise { stream; meta; schema })
        stream gen_meta gen_schema
    ; map3
        (fun stream acks trace -> Proto.Publish { stream; acks; trace })
        stream bool (opt gen_ctx)
    ; map2 (fun stream from -> Proto.Subscribe { stream; from }) stream (opt int)
    ; return Proto.Stats
    ; return Proto.List
    ; map (fun s -> Proto.Describe s) stream
    ; map (fun s -> Proto.Promote s) stream ]

let prop_proto_request_roundtrip =
  QCheck.Test.make ~name:"request decode (encode r) = Ok r" ~count:1000
    (QCheck.make gen_request)
    (fun r -> Proto.decode_request (Proto.encode_request r) = Ok r)

(* every reply variant and every typed OK body round-trips *)
let prop_proto_reply_roundtrip =
  let open QCheck.Gen in
  let gen =
    quad
      (oneof
         [ map (fun s -> Proto.Ok s) (string_size (0 -- 30))
         ; map (fun s -> Proto.Err s) (string_size (0 -- 30))
         ; map (fun n -> Proto.Busy n) int
         ; map (fun n -> Proto.Ack n) int ])
      (pair (pair bool bool) (opt int))
      (triple (opt int) gen_meta gen_schema)
      (triple int
         (list_size (0 -- 5) (gen_text 10 |> map (fun s -> "s" ^ s)))
         (list_size (0 -- 5) (pair (map (fun k -> "n." ^ k) gen_key) int)))
  in
  QCheck.Test.make ~name:"reply and typed bodies round-trip" ~count:1000
    (QCheck.make gen)
    (fun (r, ((mac, comp), published), (offset, meta, schema), (epoch, names, stats)) ->
      let sr = { Proto.offset; meta; schema } in
      Proto.decode_reply (Proto.encode_reply r) = Ok r
      && Proto.decode_banner (Proto.encode_banner { mac; comp }) = { mac; comp }
      && Proto.decode_published (Proto.encode_published published) = Ok published
      && Proto.decode_schema_reply ~offset:(offset <> None) ~meta:true
           (Proto.encode_schema_reply sr)
         = Ok sr
      && Proto.decode_epoch (Proto.encode_epoch epoch) = Ok epoch
      && Proto.decode_list (Proto.encode_list names) = names
      && Proto.decode_stats (Proto.encode_stats stats) = stats)

(* decoders are total: arbitrary bytes, and every truncation of a valid
   encoding, give Ok or Error — never Failure, Invalid_argument or
   Not_found *)
let prop_proto_decoders_total =
  let open QCheck.Gen in
  let garbage =
    map2 (fun k s -> String.make 1 k ^ s) (oneofl (String.to_seq "hapstlqmoebkxDM" |> List.of_seq))
      (string_size ~gen:(oneofl (String.to_seq "a=\n<0-1 o" |> List.of_seq)) (0 -- 24))
  in
  let truncations =
    map2
      (fun r n ->
        let s = Bytes.to_string (Proto.encode_request r) in
        String.sub s 0 (min n (String.length s)))
      gen_request (0 -- 60)
  in
  QCheck.Test.make ~name:"decoders never raise" ~count:2000
    (QCheck.make (oneof [ garbage; truncations; string_size (0 -- 40) ]))
    (fun s ->
      let b = Bytes.of_string s in
      let body = if s = "" then "" else String.sub s 1 (String.length s - 1) in
      match
        ignore (Proto.decode_request b);
        ignore (Proto.decode_reply b);
        ignore (Proto.decode_banner body);
        ignore (Proto.decode_published body);
        ignore (Proto.decode_epoch body);
        ignore (Proto.decode_list body);
        ignore (Proto.decode_stats body);
        List.iter
          (fun (offset, meta) ->
            ignore (Proto.decode_schema_reply ~offset ~meta body))
          [ (true, true); (true, false); (false, true); (false, false) ]
      with
      | () -> true
      | exception _ -> false)

(* A repeated HELLO would re-arm the negotiated frame modes mid-stream
   (fresh MAC nonce counters on one side only, a second comp_sessions
   count): the relay refuses it and the first session stands. *)
let test_second_hello_refused () =
  let key = ("k", "a shared capture-point secret") in
  let h = Relay.start (Relay.listen ~auth_keys:[ key ] ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let c = Relay.Client.connect ~port ~auth:key () in
  (match Relay.Client.rpc c (Proto.Hello [ ("auth", "hmac"); ("key-id", "k") ]) with
  | Proto.Err _ | (exception Relay.Client.Error _) -> ()
  | _ -> Alcotest.fail "a second HELLO was accepted");
  Relay.Client.close c;
  ignore (wait_stat ~port "frames_rejected" 1);
  let admin = Relay.Client.connect ~port () in
  let stats = Relay.Client.stats admin in
  Relay.Client.close admin;
  check int "one authenticated session" 1
    (Option.value ~default:0 (List.assoc_opt "auth_sessions" stats))

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

(* Closing a subscriber session while its relay is down must end the
   reconnect loop: the blocked receive returns [None] within one
   backoff step (not [Gave_up] once the budget runs out), and a relay
   that comes back afterwards never sees the closed session subscribe
   again. *)
let test_session_close_during_outage () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  let pub, _, _ = make_publisher ~port ~stream:"flights" in
  let max_delay_s = 0.2 in
  let sub =
    Session.subscribe
      (Session.config ~max_attempts:40 ~base_delay_s:0.05 ~max_delay_s
         ~port ())
      ~stream:"flights" Abi.arm_32
  in
  Relay.Client.close pub;
  Relay.stop h;
  let result = ref None in
  let receiver =
    Thread.create
      (fun () ->
        result :=
          Some
            (match Session.recv_subscriber sub with
            | None -> "None"
            | Some _ -> "an event"
            | exception e -> Printexc.to_string e))
      ()
  in
  Thread.delay 0.3;
  Session.close_subscriber sub;
  let deadline = Unix.gettimeofday () +. max_delay_s +. 0.3 in
  while Option.is_none !result && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check
    (Alcotest.option Alcotest.string)
    "receive returns None within one backoff step" (Some "None") !result;
  Thread.join receiver;
  (* the relay comes back on the same port, stream advertised *)
  let h2 = Relay.start (Relay.listen ~port ()) in
  Fun.protect ~finally:(fun () -> Relay.stop h2) @@ fun () ->
  let pub2, _, _ = make_publisher ~port ~stream:"flights" in
  Thread.delay (3. *. max_delay_s);
  check int "the closed session never subscribed again" 0
    (Option.value ~default:0 (List.assoc_opt "subscriptions" (Relay.stats h2)));
  Relay.Client.close pub2

(* The one retry driver, with no socket and no sleep: scripted dials,
   and a [sleep] that only records the delay it was asked to wait. *)
let test_retry_driver () =
  let module Rc = Omf_relay.Relay_client in
  let module Prng = Omf_util.Prng in
  let base_s = 0.05 and max_s = 0.3 and seed = 11L in
  let slept = ref [] and stop = ref false and dials = ref 0 in
  let driver ?(on_sleep = ignore) attempts =
    slept := [];
    stop := false;
    dials := 0;
    Rc.retry ~attempts ~base_s ~max_s ~seed
      ~stopped:(fun () -> !stop)
      ~sleep:(fun d ->
        slept := d :: !slept;
        on_sleep ())
  in
  let waits () = List.rev !slept in
  let delays = Alcotest.(list (float 0.0)) in
  (* backoff step k is min(max_s, base_s * 2^k) scaled into [0.5, 1.0)
     of itself by the next draw of the generator [seed] starts *)
  let steps k =
    let rng = Prng.create ~seed () in
    List.init k (fun i ->
        Float.min max_s (base_s *. (2.0 ** float_of_int i))
        *. (0.5 +. (0.5 *. Prng.float rng)))
  in
  (* a dial that fails its first [fails] calls, then returns its count *)
  let script fails () =
    incr dials;
    if !dials <= fails then raise (Relay.Client.Error "relay connect: refused")
    else !dials
  in
  let r = driver 10 in
  check int "the fourth dial connects" 4 (Rc.reconnect r ~what:"t" (script 3));
  check delays "waits are backoff steps 0..2" (steps 3) (waits ());
  (* busy replies are waited out on the same dial: three of them fit a
     budget of one attempt *)
  let r = driver 1 and busy = ref 0 and replies = ref 0 in
  let reply () =
    incr replies;
    if !replies <= 3 then raise (Relay.Client.Busy { retry_ms = 40 })
    else "admitted"
  in
  check Alcotest.string "admitted after the busy replies" "admitted"
    (Rc.reconnect r ~what:"t" (fun () ->
         incr dials;
         Rc.busy_wait r ~what:"t" ~on_busy:(fun () -> incr busy) reply));
  check int "every busy reply counted" 3 !busy;
  check int "no attempt spent on busy" 1 !dials;
  let rng = Prng.create ~seed () in
  check delays "each wait is the hint, jittered"
    (List.init 3 (fun _ -> 0.04 *. (0.5 +. (0.5 *. Prng.float rng))))
    (waits ());
  (* a stop during the first backoff: no second dial *)
  let r = driver ~on_sleep:(fun () -> stop := true) 10 in
  (match Rc.reconnect r ~what:"t" (script max_int) with
  | _ -> Alcotest.fail "a stopped driver connected"
  | exception Rc.Stopped -> ());
  check int "no dial after the stop" 1 !dials;
  (* a final failure is raised after one dial *)
  let r = driver 10 in
  let refusal = Relay.Client.Error "stream is read-only" in
  (match
     Rc.reconnect ~final:(fun e -> e == refusal) r ~what:"t" (fun () ->
         incr dials;
         raise refusal)
   with
  | () -> Alcotest.fail "a refused dial connected"
  | exception e when e == refusal -> ());
  check int "a final failure is not retried" 1 !dials;
  check delays "nor waited on" [] (waits ());
  (* the budget: exactly [attempts] dials, then Gave_up *)
  let r = driver 4 in
  (match Rc.reconnect r ~what:"t" (script max_int) with
  | _ -> Alcotest.fail "a dead relay connected"
  | exception Session.Gave_up _ -> ());
  check int "the budget is its dials" 4 !dials;
  check delays "with backoff steps 0..2 between them" (steps 3) (waits ())

(* two threads publishing on one session each marshal into the
   session's scratch memory: every event must arrive intact, once *)
let test_session_concurrent_publishers () =
  let h = Relay.start (Relay.listen ()) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let cfg = Session.config ~port:(Relay.port h) () in
  let pub =
    Session.publisher cfg ~stream:"flights" ~schema:Fx.schema_a
      Abi.x86_64
  in
  let sub = Session.subscribe cfg ~stream:"flights" Abi.x86_64 in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let n = 2000 in
  (* the pad length varies with the sequence number, so an event
     marshalled over another's would not match either *)
  let ev seq = event ~pad:(1 + (seq mod 61 * 64)) seq in
  let publisher w =
    Thread.create
      (fun () ->
        for i = 0 to n - 1 do
          Session.publish_value pub fmt (ev ((w * n) + i))
        done)
      ()
  in
  let seen = Array.make (2 * n) 0 and damaged = ref 0 in
  let finished = ref false in
  let receiver =
    Thread.create
      (fun () ->
        let rec go k =
          if k < 2 * n then
            match Session.recv_subscriber sub with
            | Some (_, v) ->
              let seq = seq_of v in
              if seq >= 0 && seq < 2 * n && Value.equal v (ev seq) then
                seen.(seq) <- seen.(seq) + 1
              else incr damaged;
              go (k + 1)
            | None -> ()
        in
        go 0;
        finished := true)
      ()
  in
  List.iter Thread.join [ publisher 0; publisher 1 ];
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not !finished) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Session.close_subscriber sub;
  Thread.join receiver;
  Session.close_publisher pub;
  check int "no event damaged" 0 !damaged;
  check int "every event received exactly once" (2 * n)
    (Array.fold_left (fun acc c -> acc + if c = 1 then 1 else 0) 0 seen)

(* ------------------------------------------------------------------ *)
(* Replication links, in process                                        *)
(* ------------------------------------------------------------------ *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* a link adopted from a socket pair: the far end plays the source *)
let test_adopt_replica () =
  let h = Relay.start (Relay.listen ()) in
  let frames = Atomic.make 0 and closed = ref None in
  let rep =
    { Relay.stream = "flights"
    ; meta = [ ("origin", "source-relay"); ("epoch", "1") ]
    ; schema = Fx.schema_a; trace = None
    ; on_frame =
        (function `Message -> Atomic.incr frames | `Descriptor -> ())
    ; on_close = (fun ~local -> closed := Some local) }
  in
  (match Relay.claim_replica h rep with
  | Ok from -> check int "a memory relay replicates from the tail" (-1) from
  | Error msg -> Alcotest.fail msg);
  let client, consumer =
    timed_consumer ~port:(Relay.port h) ~stream:"flights" Abi.sparc_32
  in
  let near, far = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Relay.adopt_replica h rep near ~mac:None ~comp:false with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let source = Tcp.link_of_fd far in
  Endpoint.Sender.send_value
    (Endpoint.Sender.create source (Memory.create Abi.x86_64))
    fmt (event 1771);
  (match Endpoint.Receiver.recv_value consumer with
  | Some (_, v) ->
    check int "a frame written at the far end reaches a subscriber" 1771
      (seq_of v)
  | None -> Alcotest.fail "the stream closed");
  Relay.Client.close client;
  Relay.stop h;
  Link.close source;
  check int "one message frame replicated" 1 (Atomic.get frames);
  check (Alcotest.option bool) "the link closed with the relay" (Some true)
    !closed;
  (* once the relay is stopping, adoption takes nothing *)
  let before = open_fds () in
  let near, far = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Relay.adopt_replica h rep near ~mac:None ~comp:false with
  | Ok () -> Alcotest.fail "adopted by a stopped relay"
  | Error msg ->
    check Alcotest.string "refused" "relay is shutting down" msg);
  check bool "the caller's fd is still open" true
    (match Unix.fstat near with
    | _ -> true
    | exception Unix.Unix_error _ -> false);
  Unix.close near;
  Unix.close far;
  check int "closing it leaves the fd count where it started" before
    (open_fds ())

let () =
  Alcotest.run "relay"
    [ ( "frames",
        [ QCheck_alcotest.to_alcotest prop_frame_reassembly
        ; QCheck_alcotest.to_alcotest prop_decoder_views
        ; Alcotest.test_case "oversized frame rejected" `Quick
            test_frame_max_length
        ; QCheck_alcotest.to_alcotest prop_macframe_roundtrip_and_tamper
        ; QCheck_alcotest.to_alcotest prop_slice_codec_equivalence ] )
    ; ( "pubsub",
        [ Alcotest.test_case "publish/subscribe + descriptor replay" `Quick
            test_pubsub_and_descriptor_replay
        ; Alcotest.test_case "basic publish/subscribe" `Quick test_basic_pubsub
        ; Alcotest.test_case "basic publish/subscribe via localhost" `Quick
            (test_basic_pubsub ~host:"localhost")
        ; Alcotest.test_case "fan-out to many subscribers" `Quick
            test_fanout_many_subscribers
        ; Alcotest.test_case "late joiner descriptor replay" `Quick
            test_late_joiner_descriptor_replay
        ; Alcotest.test_case "malformed descriptor ends a subscriber" `Quick
            test_malformed_descriptor_ends_subscriber
        ; Alcotest.test_case "unsubscribe" `Quick test_unsubscribe
        ; Alcotest.test_case "stress: streams x subscribers" `Quick
            test_stress_streams_x_subscribers
        ; Alcotest.test_case "credential scoping over TCP" `Quick
            test_scoped_credentials_over_tcp
        ; Alcotest.test_case "unknown stream / role errors" `Quick
            test_unknown_stream_and_role_errors
        ; Alcotest.test_case "stats protocol" `Quick test_stats_protocol
        ; Alcotest.test_case "LIST excludes unknown streams" `Quick
            test_list_excludes_unknown_streams
        ; Alcotest.test_case "advertise validates metadata" `Quick
            test_advertise_validates_schema
        ; Alcotest.test_case "stream listing" `Quick test_stream_listing
        ; Alcotest.test_case "unknown stream" `Quick
            test_set_scope_unknown_stream
        ; Alcotest.test_case "STATS keys unique, store gauges live" `Quick
            test_stats_keys_unique_and_live
        ; Alcotest.test_case "descriptor cache dedupes reconnects" `Quick
            (descriptor_cache_dedupes ~store:false)
        ; Alcotest.test_case "descriptor cache dedupes across a restart"
            `Quick
            (descriptor_cache_dedupes ~store:true) ] )
    ; ( "scale",
        [ Alcotest.test_case "64 TCP subscribers, zero loss, in order" `Quick
            test_64_subscribers_zero_loss_in_order ] )
    ; ( "backpressure",
        [ Alcotest.test_case "evict-slow-consumer" `Quick
            test_evict_slow_consumer
        ; Alcotest.test_case "drop-oldest keeps stream decodable" `Quick
            (drop_oldest_keeps_stream_decodable ?auth:None)
        ; Alcotest.test_case "drop-oldest on sealed links sheds no nonce"
            `Quick
            (drop_oldest_keeps_stream_decodable
               ~auth:("shed", "shed-secret"))
        ; Alcotest.test_case "chunked stored replay under backpressure" `Quick
            test_chunked_replay_backpressure
        ; Alcotest.test_case "Block isolates streams, resumes on close" `Quick
            test_block_isolation_and_resume_on_close ] )
    ; ( "scoping",
        [ Alcotest.test_case "credential-based field scoping" `Quick
            test_credential_field_scoping
        ; Alcotest.test_case "empty slice denied" `Quick
            test_scoping_denies_empty_slice ] )
    ; ( "evolution",
        [ Alcotest.test_case "run-time format upgrade" `Quick
            test_runtime_format_upgrade ] )
    ; ( "borrow",
        [ Alcotest.test_case "stalled subscriber keeps every frame" `Quick
            test_stalled_subscriber_keeps_frames
        ; Alcotest.test_case "comp=lz blocks at one read offset" `Quick
            test_compressed_same_offset
        ; Alcotest.test_case "comp=lz subscriber gets the publisher's block"
            `Quick test_forwarded_block ] )
    ; ( "alloc",
        [ Alcotest.test_case "shard words per event, plain links" `Quick
            (check_relay_alloc ~secure:false ~budget:16)
        ; Alcotest.test_case "shard words per event, mac+comp links" `Quick
            (check_relay_alloc ~secure:true ~budget:24) ] )
    ; ( "governor",
        [ Alcotest.test_case "hysteresis state machine" `Quick
            test_governor_hysteresis
        ; Alcotest.test_case "adaptive busy retry hint" `Quick
            test_governor_adaptive_retry
        ; Alcotest.test_case "overload sheds publish with busy" `Quick
            test_governor_overload_sheds_publish
        ; Alcotest.test_case "byte accounting symmetry" `Quick
            test_governor_accounting_symmetry ] )
    ; ( "sharded",
        [ Alcotest.test_case "fan-out + descriptor replay" `Quick (fun () ->
              pubsub_and_descriptor_replay ~shards:2 ~joiners:3 ())
        ; Alcotest.test_case "Block backpressure, zero loss" `Quick (fun () ->
              block_zero_loss_in_order ~shards:2 ~nsubs:8 ())
        ; Alcotest.test_case "stored from= replay" `Quick (fun () ->
              chunked_replay_backpressure ~shards:2 ())
        ; Alcotest.test_case "governor accounting symmetry" `Quick (fun () ->
              governor_accounting_symmetry ~shards:2 ())
        ; Alcotest.test_case "set_scope credential scoping" `Quick (fun () ->
              scoped_credentials_over_tcp ~shards:2 ())
        ; Alcotest.test_case "stream gauges cross shards" `Quick
            test_stream_gauges_cross_shards ] )
    ; ( "shutdown",
        [ Alcotest.test_case "graceful drain" `Quick
            test_graceful_drain_on_shutdown ] )
    ; ( "proto",
        [ Alcotest.test_case "golden wire bytes" `Quick test_proto_golden
        ; QCheck_alcotest.to_alcotest prop_proto_request_roundtrip
        ; QCheck_alcotest.to_alcotest prop_proto_reply_roundtrip
        ; QCheck_alcotest.to_alcotest prop_proto_decoders_total
        ; Alcotest.test_case "second HELLO refused" `Quick
            test_second_hello_refused ] )
    ; ( "session",
        [ Alcotest.test_case "close during an outage stops reconnecting"
            `Quick test_session_close_during_outage
        ; Alcotest.test_case "two threads publish on one session" `Quick
            test_session_concurrent_publishers
        ; Alcotest.test_case "retry driver" `Quick test_retry_driver ] )
    ; ( "replica",
        [ Alcotest.test_case "adopt_replica hosts a link" `Quick
            test_adopt_replica ] ) ]
