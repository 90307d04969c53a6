(** Tests for relay-to-relay stream replication (lib/mirror,
    doc/MIRROR.md): an A->B link replicating frames and advertisement
    metadata verbatim, read-only enforcement on the replica, exact
    frame counts across a bidirectional A<->B pair (origin-tagged loop
    prevention — no amplification), an idle link that stays up with a
    byte-exact replica, busy sources pausing a link without spending
    its budget, explicit promotion, promote-on-loss failover, and
    re-advertisement of persisted metadata after a relayd restart.

    Timing-sensitive (live links, rescans, backoff budgets): runs
    under [dune build @mirror] and the smoke alias, not tier-1
    [runtest]. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Relay = Omf_relay.Relay
module Session = Omf_relay.Relay_session
module Proto = Omf_relay.Relay_proto
module Chaos = Omf_testkit.Chaos
module Mirror = Omf_mirror.Mirror
module Fx = Omf_fixtures.Paper_structs
module Catalog = Omf_xml2wire.Catalog
module X2W = Omf_xml2wire.Xml2wire

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let with_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-mirror-%d-%d" (Unix.getpid ()) (Random.int 1000000))
  in
  let rec rm path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> try rm root with _ -> ()) (fun () -> f root)

let store_cfg root =
  { (Relay.Store.default_config ~root) with fsync = Relay.Store.Interval 0.02 }

let event seq = Value.set_field Fx.value_a "fltNum" (Value.Int (Int64.of_int seq))

let seq_of v =
  match Value.field_exn v "fltNum" with
  | Value.Int i -> Int64.to_int i
  | _ -> -1

(* an advertised stream (with a registry binding) plus a publisher
   endpoint on it *)
let make_publisher ?meta ?(abi = Abi.x86_64) ~port ~stream () =
  let client = Relay.Client.connect ~port () in
  Relay.Client.advertise ?meta client ~stream ~schema:Fx.schema_a;
  let link = Relay.Client.publish client ~stream in
  let catalog = Catalog.create abi in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let sender = Endpoint.Sender.create link (Memory.create abi) in
  (client, sender, fmt)

let publish sender fmt seq = Endpoint.Sender.send_value sender fmt (event seq)

let relay_stat ~port key =
  match Relay.Client.connect ~port () with
  | c ->
    let v =
      Option.value ~default:0 (List.assoc_opt key (Relay.Client.stats c))
    in
    Relay.Client.close c;
    v
  | exception Relay.Client.Error _ -> 0

let poll ?(deadline_s = 15.0) ~what (cond : unit -> bool) =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timeout waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let assoc key stats = Option.value ~default:0 (List.assoc_opt key stats)

(* a fast mirror config for tests *)
let mcfg ?globs ?(max_attempts = 3) ?(promote_on_loss = false)
    ?(compress = false) ?source_auth ?(io_timeout_s = 0.25)
    ?(source_host = "127.0.0.1") ~source_port () =
  Mirror.config ?globs ~rescan_s:0.05 ~io_timeout_s ~max_attempts
    ~base_delay_s:0.02 ~max_delay_s:0.1 ~promote_on_loss ~compress
    ?source_auth ~source_host ~source_port ()

(* read exactly [n] decoded events off a replica, starting at store
   offset [from] *)
let read_from ~port ~stream ~from n =
  let c = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close c) @@ fun () ->
  let start, _schema, link = Relay.Client.subscribe_from c ~stream ~from in
  check bool "store-backed reply carries the offset" true (start <> None);
  let catalog = Catalog.create Abi.arm_32 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let receiver =
    Endpoint.Receiver.create link
      (Catalog.registry catalog)
      (Memory.create Abi.arm_32)
  in
  List.init n (fun i ->
      match Endpoint.Receiver.recv_value receiver with
      | Some (_, v) -> seq_of v
      | None -> Alcotest.failf "stream closed at %d" i)

(* ------------------------------------------------------------------ *)
(* A -> B replication: frames, metadata, read-only replica              *)
(* ------------------------------------------------------------------ *)

let test_replicates_frames_and_metadata () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_a = Relay.relay_id ha in
  let id_b = Relay.relay_id hb in
  check bool "relay ids differ" true (not (String.equal id_a id_b));
  let pub, sender, fmt =
    make_publisher
      ~meta:[ ("subject", "flights"); ("version", "3"); ("fingerprint", "fp-abc") ]
      ~port:port_a ~stream:"flights" ()
  in
  let n = 20 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  poll ~what:"source stored the burst" (fun () ->
      relay_stat ~port:port_a "store.flights.tail" >= n);
  let m =
    Mirror.start hb (mcfg ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  (* the replica re-advertises the source's metadata verbatim, plus
     the origin tag naming the source relay *)
  let c = Relay.Client.connect ~port:port_b () in
  let meta, schema = Relay.Client.describe c ~stream:"flights" in
  check (Alcotest.option string) "subject preserved" (Some "flights")
    (List.assoc_opt "subject" meta);
  check (Alcotest.option string) "version preserved" (Some "3")
    (List.assoc_opt "version" meta);
  check (Alcotest.option string) "fingerprint preserved" (Some "fp-abc")
    (List.assoc_opt "fingerprint" meta);
  check (Alcotest.option string) "origin is the source relay" (Some id_a)
    (List.assoc_opt "origin" meta);
  check (Alcotest.option string) "epoch 0" (Some "0")
    (List.assoc_opt "epoch" meta);
  check string "schema replicated" Fx.schema_a schema;
  (* a foreign-origin stream is read-only: plain publish refused *)
  (match Relay.Client.publish c ~stream:"flights" with
  | _ -> Alcotest.fail "plain publish on a mirrored stream succeeded"
  | exception Relay.Client.Error msg ->
    check bool "refusal says read-only" true (contains msg "read-only"));
  Relay.Client.close c;
  (* a consumer on the replica reads the full history, in order, at
     the same offsets as the source *)
  check
    (Alcotest.list int)
    "replica serves 0..n-1 from offset 0"
    (List.init n Fun.id)
    (read_from ~port:port_b ~stream:"flights" ~from:0 n);
  (* replication-lag gauge appears (and reads 0 once caught up) *)
  poll ~what:"lag gauge" (fun () ->
      List.mem_assoc "mirror.flights.lag_frames" (Mirror.stats m));
  check int "descriptor replicated too" 1
    (assoc "descriptors_replicated" (Mirror.stats m));
  check int "every message frame counted" n
    (assoc "frames_replicated" (Mirror.stats m));
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Compressed replication link: byte-exact fidelity                     *)
(* ------------------------------------------------------------------ *)

(* With [--mirror-compress] both legs of the link carry LZ blocks
   (PROTOCOLS.md §18). The replica must end up byte-identical to the
   plain-link case: same offsets, same decoded sequence, same
   advertisement metadata — and the source relay's [comp.*] counters
   must prove frames actually travelled compressed. *)
let test_compressed_link_fidelity () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt =
    make_publisher
      ~meta:[ ("subject", "flights"); ("version", "3"); ("fingerprint", "fp-z") ]
      ~port:port_a ~stream:"flights" ()
  in
  let n = 40 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  poll ~what:"source stored the burst" (fun () ->
      relay_stat ~port:port_a "store.flights.tail" >= n);
  let m =
    Mirror.start hb (mcfg ~compress:true ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up over the compressed link" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  (* every replicated frame decodes to the exact published sequence *)
  check
    (Alcotest.list int)
    "replica serves 0..n-1 from offset 0"
    (List.init n Fun.id)
    (read_from ~port:port_b ~stream:"flights" ~from:0 n);
  (* metadata rides the compressed link verbatim too *)
  let c = Relay.Client.connect ~port:port_b () in
  let meta, schema = Relay.Client.describe c ~stream:"flights" in
  check (Alcotest.option string) "fingerprint preserved" (Some "fp-z")
    (List.assoc_opt "fingerprint" meta);
  check string "schema replicated" Fx.schema_a schema;
  Relay.Client.close c;
  (* both relays granted comp=lz, and the source actually sent the
     replay as LZ blocks *)
  check bool "source granted a compressed session" true
    (relay_stat ~port:port_a "comp_sessions" >= 1);
  check bool "local relay granted a compressed session" true
    (relay_stat ~port:port_b "comp_sessions" >= 1);
  check bool "source counted compressed wire bytes" true
    (relay_stat ~port:port_a "comp.flights.wire_bytes" > 0);
  check bool "compressed raw bytes counted" true
    (relay_stat ~port:port_a "comp.flights.raw_bytes" > 0);
  check int "no frame lost or duplicated" n
    (assoc "frames_replicated" (Mirror.stats m));
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Authenticated link: a corrupted sealed frame re-links the stream     *)
(* ------------------------------------------------------------------ *)

(* One bit flipped inside a sealed data frame on the source leg fails
   its MAC check in the mirror. That is a broken connection like any
   other: the link must drop it, re-handshake and resume from the
   replica's tail, so every frame still lands on B exactly once. *)
let test_corrupt_sealed_frame_relinks () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let key = ("k1", "mirror-secret") in
  let ha =
    Relay.start (Relay.listen ~store:(store_cfg root_a) ~auth_keys:[ key ] ())
  in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 200 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  poll ~what:"source stored the burst" (fun () ->
      relay_stat ~port:port_a "store.flights.tail" >= n);
  let chaos = Chaos.start ~upstream_port:port_a () in
  Fun.protect ~finally:(fun () -> Chaos.stop chaos) @@ fun () ->
  (* byte 8000 of the source's replies on a link is well past the
     handshake and inside the sealed replay (~35 KB) *)
  Chaos.set_fault chaos ~dir:Chaos.Down (Chaos.Corrupt_at 8000);
  let m =
    Mirror.start hb (mcfg ~source_auth:key ~source_port:(Chaos.port chaos) ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"the corrupted link reconnected" (fun () ->
      assoc "reconnects" (Mirror.stats m) >= 1);
  Chaos.set_fault chaos ~dir:Chaos.Down Chaos.Passthrough;
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  check bool "the source rejected nothing: the fault was on its replies" true
    (relay_stat ~port:port_a "frames_rejected" = 0);
  check
    (Alcotest.list int)
    "replica serves 0..n-1 exactly once"
    (List.init n Fun.id)
    (read_from ~port:port_b ~stream:"flights" ~from:0 n);
  check int "no duplicate appended" n
    (relay_stat ~port:port_b "store.flights.tail");
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Bidirectional A <-> B: loop prevention, no amplification             *)
(* ------------------------------------------------------------------ *)

let test_bidirectional_no_amplification () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let m_ab =
    Mirror.start hb (mcfg ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m_ab) @@ fun () ->
  let m_ba =
    Mirror.start ha (mcfg ~source_port:port_b ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m_ba) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 25 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  (* the reverse link must refuse the stream (it originates at A) and
     the counts must settle exactly: the loop terminates *)
  poll ~what:"reverse link skipped the loop" (fun () ->
      assoc "loops_skipped" (Mirror.stats m_ba) >= 1);
  Thread.delay 0.4 (* several rescan periods: amplification would show *);
  check int "source tail unchanged (no frames came back around)" n
    (relay_stat ~port:port_a "store.flights.tail");
  check int "replica tail exact" n
    (relay_stat ~port:port_b "store.flights.tail");
  check int "forward link replicated each frame once" n
    (assoc "frames_replicated" (Mirror.stats m_ab));
  check int "reverse link replicated nothing" 0
    (assoc "frames_replicated" (Mirror.stats m_ba));
  check int "reverse manager never started a link" 0
    (assoc "streams_linked" (Mirror.stats m_ba));
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Promotion: explicit ownership transfer                               *)
(* ------------------------------------------------------------------ *)

let test_promote_transfers_ownership () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_b = Relay.relay_id hb in
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 10 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let m =
    Mirror.start hb (mcfg ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  let c = Relay.Client.connect ~port:port_b () in
  check int "promote bumps the epoch" 1
    (Relay.Client.promote c ~stream:"flights");
  check int "promote is idempotent" 1 (Relay.Client.promote c ~stream:"flights");
  let meta, _ = Relay.Client.describe c ~stream:"flights" in
  check (Alcotest.option string) "origin transferred" (Some id_b)
    (List.assoc_opt "origin" meta);
  Relay.Client.close c;
  (* the promoted stream is writable: a local publisher appends at the
     next offset, and a from-0 reader sees old + new contiguously *)
  let pub2, sender2, fmt2 = make_publisher ~port:port_b ~stream:"flights" () in
  publish sender2 fmt2 n;
  publish sender2 fmt2 (n + 1);
  poll ~what:"local appends" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n + 2);
  check
    (Alcotest.list int)
    "replicated history + local tail, contiguous"
    (List.init (n + 2) Fun.id)
    (read_from ~port:port_b ~stream:"flights" ~from:0 (n + 2));
  (* the stale A->B link is now refused (its epoch lost). The idle
     pump only notices through a failed local send, and TCP happily
     buffers the first write after the peer's close — so keep feeding
     frames through A until the broken link re-handshakes and hits the
     stale-epoch gate *)
  let fed = ref n in
  poll ~what:"stale link refused" (fun () ->
      publish sender fmt !fed;
      incr fed;
      Thread.delay 0.05;
      assoc "links_refused" (Mirror.stats m) >= 1);
  check int "replica did not regress" (n + 2)
    (relay_stat ~port:port_b "store.flights.tail");
  Relay.Client.close pub2;
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Promote-on-loss failover                                             *)
(* ------------------------------------------------------------------ *)

let test_promote_on_loss_failover () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  let stopped_a = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped_a then Relay.stop ha)
  @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_b = Relay.relay_id hb in
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 15 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let m =
    Mirror.start hb
      (mcfg ~max_attempts:2 ~promote_on_loss:true ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  (* the source dies; the reconnect budget runs out; the replica
     promotes itself *)
  (try Relay.Client.close pub with _ -> ());
  stopped_a := true;
  Relay.stop ha;
  poll ~deadline_s:20.0 ~what:"promote on loss" (fun () ->
      assoc "promotes" (Mirror.stats m) >= 1);
  let c = Relay.Client.connect ~port:port_b () in
  let meta, _ = Relay.Client.describe c ~stream:"flights" in
  check (Alcotest.option string) "ownership failed over" (Some id_b)
    (List.assoc_opt "origin" meta);
  check bool "epoch bumped" true
    (match List.assoc_opt "epoch" meta with
    | Some e -> int_of_string e >= 1
    | None -> false);
  Relay.Client.close c;
  (* consumers resume against the promoted replica with zero loss *)
  check
    (Alcotest.list int)
    "full history served after failover"
    (List.init n Fun.id)
    (read_from ~port:port_b ~stream:"flights" ~from:0 n);
  (* and it accepts writes again *)
  let _pub2, sender2, fmt2 = make_publisher ~port:port_b ~stream:"flights" () in
  publish sender2 fmt2 n;
  poll ~what:"post-failover append" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n + 1)

(* Promotion makes the replica's history durable. The replica store
   syncs only once a minute, so its replicated frames are not yet on
   disk when the source dies; the promoted replica must have fsynced
   them before it owns the stream. *)
let test_promote_syncs_replica () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  let stopped_a = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped_a then Relay.stop ha)
  @@ fun () ->
  let hb =
    Relay.start
      (Relay.listen
         ~store:
           { (Relay.Store.default_config ~root:root_b) with
             fsync = Relay.Store.Interval 60.0 }
         ())
  in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 15 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let m =
    Mirror.start hb
      (mcfg ~max_attempts:2 ~promote_on_loss:true ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  check bool "replicated frames not yet synced" true
    (relay_stat ~port:port_b "store.flights.durable" < n);
  (try Relay.Client.close pub with _ -> ());
  stopped_a := true;
  Relay.stop ha;
  poll ~deadline_s:20.0 ~what:"promote on loss" (fun () ->
      assoc "promotes" (Mirror.stats m) >= 1);
  check int "durable = tail at promotion" n
    (relay_stat ~port:port_b "store.flights.durable");
  check int "tail unchanged" n (relay_stat ~port:port_b "store.flights.tail")

(* ------------------------------------------------------------------ *)
(* Idle link: no churn, byte-exact replica                              *)
(* ------------------------------------------------------------------ *)

(* every frame a from=0 subscriber reads until [n] message frames,
   descriptors included, as raw bytes *)
let raw_frames ~port ~stream n =
  let c = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close c) @@ fun () ->
  let _start, _schema, link = Relay.Client.subscribe_from c ~stream ~from:0 in
  let rec go acc msgs =
    if msgs = n then List.rev acc
    else
      match Link.recv link with
      | Some f ->
        go (Bytes.to_string f :: acc)
          (if Bytes.get f 0 = Proto.frame_message then msgs + 1 else msgs)
      | None -> Alcotest.failf "stream closed after %d messages" msgs
  in
  go [] 0

(* After catch-up an idle source must leave the link alone for several
   [io_timeout_s] periods: no reconnect, no second handshake. The
   replica then serves the source's descriptor and message frames byte
   for byte. *)
let test_idle_link_does_not_churn ?source_host () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 10 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let io_timeout_s = 0.25 in
  let m = Mirror.start hb (mcfg ?source_host ~io_timeout_s ~source_port:port_a ()) in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  Thread.delay (3. *. io_timeout_s);
  check int "one link, established once" 1
    (assoc "links_established" (Mirror.stats m));
  check int "no reconnect while idle" 0 (assoc "reconnects" (Mirror.stats m));
  check (Alcotest.list string) "replica frames are the source's, byte for byte"
    (raw_frames ~port:port_a ~stream:"flights" n)
    (raw_frames ~port:port_b ~stream:"flights" n);
  Relay.Client.close pub

(* A restarted publisher numbers its formats from 1 again, so a new
   descriptor can reuse a format id the link already forwarded — here
   the same struct from a big-endian 32-bit capture point. The replica
   must forward that descriptor too: a live consumer on it decodes the
   second publisher's events, not the first one's layout. *)
let test_reused_format_id_replicated () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  for seq = 0 to 4 do
    publish sender fmt seq
  done;
  let m =
    Mirror.start hb (mcfg ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= 5);
  Relay.Client.close pub;
  let consumer =
    Session.subscribe
      (Session.config ~max_attempts:0 ~port:port_b ())
      ~stream:"flights" Abi.arm_32
  in
  Fun.protect ~finally:(fun () -> Session.close_subscriber consumer) @@ fun () ->
  let pub2, sender2, fmt2 =
    make_publisher ~abi:Abi.sparc_32 ~port:port_a ~stream:"flights" ()
  in
  check int "the second publisher reuses the format id" fmt.Format.id
    fmt2.Format.id;
  for seq = 5 to 9 do
    publish sender2 fmt2 seq
  done;
  let seqs =
    List.init 5 (fun _ ->
        match Session.recv_subscriber consumer with
        | Some (_, v) -> seq_of v
        | None -> Alcotest.fail "replica consumer closed early")
  in
  check (Alcotest.list int) "the replica decodes the new layout" [ 5; 6; 7; 8; 9 ]
    seqs;
  check int "both descriptors replicated" 2
    (assoc "descriptors_replicated" (Mirror.stats m));
  Relay.Client.close pub2

(* ------------------------------------------------------------------ *)
(* Overload: busy pauses the link and spends no budget                  *)
(* ------------------------------------------------------------------ *)

(* A source in [Overloaded] answers the link's [from=] SUBSCRIBE with
   [busy] (PROTOCOLS.md §16). That is overload, not loss: with a
   reconnect budget of 2 and promote-on-loss armed, the link must wait
   out the hints without reconnecting, declaring the source lost or
   promoting; once the pressure goes the replica catches up, every
   frame exactly once. *)
(* A store-backed source with a small governor budget, holding [n]
   stored "flights" frames. *)
let busy_source root ~n =
  let ha =
    Relay.start
      (Relay.listen ~store:(store_cfg root) ~sndbuf:4096 ~max_queue:100_000
         ~governor:(Relay.Governor.config ~budget:32_768 ~busy_retry_ms:30 ())
         ())
  in
  let port = Relay.port ha in
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" () in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  poll ~what:"source stored the burst" (fun () ->
      relay_stat ~port "store.flights.tail" >= n);
  (ha, pub)

(* Overload the relay on [port] for the duration of [f]: a storm of
   1 KB frames at a subscriber that never reads, until the shard's
   outbound backlog trips the governor. [f release] runs overloaded;
   [release ()] stops the storm and drops the hoarder. *)
let with_overload ~port f =
  let adv = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close adv) @@ fun () ->
  Relay.Client.advertise adv ~stream:"storm" ~schema:Fx.schema_a;
  let hoarder = Relay.Client.connect ~port () in
  let _schema, _link = Relay.Client.subscribe hoarder ~stream:"storm" in
  let spub = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close spub) @@ fun () ->
  let slink = Relay.Client.publish spub ~stream:"storm" in
  let frame = Bytes.make 1024 'x' in
  Bytes.set frame 0 Proto.frame_message;
  let storming = ref true in
  ignore
    (Thread.create
       (fun () ->
         try
           while !storming do
             Link.send slink frame
           done
         with _ -> ())
       ());
  poll ~what:"source overloaded" (fun () ->
      relay_stat ~port "governor_health" = 2);
  (* the hoarder's TCP receive window keeps growing for a moment, so the
     shard drops out of Overloaded and back a few times (a [from=]
     SUBSCRIBE would be admitted in between): wait until it holds *)
  let entries = ref (-1) in
  poll ~what:"overload steady" (fun () ->
      Thread.delay 0.1;
      let now = relay_stat ~port "governor_overloaded" in
      let steady = now = !entries && relay_stat ~port "governor_health" = 2 in
      entries := now;
      steady);
  f (fun () ->
      storming := false;
      Relay.Client.close hoarder)

let test_busy_pauses_link () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let n = 20 in
  let ha, pub = busy_source root_a ~n in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  Fun.protect ~finally:(fun () -> Relay.Client.close pub) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  with_overload ~port:port_a @@ fun release ->
  let m =
    Mirror.start hb
      (mcfg ~globs:[ "flights" ] ~max_attempts:2 ~promote_on_loss:true
         ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"link paused on busy" (fun () ->
      assoc "busy_backoffs" (Mirror.stats m) >= 1);
  Thread.delay 0.3 (* several hints: a budget spent on busy would show *);
  check int "still overloaded" 2 (relay_stat ~port:port_a "governor_health");
  let stats = Mirror.stats m in
  check int "busy is no reconnect" 0 (assoc "reconnects" stats);
  check int "busy is no source loss" 0 (assoc "sources_lost" stats);
  check int "busy never promotes" 0 (assoc "promotes" stats);
  (* relieve the pressure: the hoarder goes, the shard recovers *)
  release ();
  poll ~what:"source recovered" (fun () ->
      relay_stat ~port:port_a "governor_health" = 0);
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  check
    (Alcotest.list int)
    "replica holds every frame exactly once" (List.init n Fun.id)
    (read_from ~port:port_b ~stream:"flights" ~from:0 n);
  check int "no duplicate appended" n
    (relay_stat ~port:port_b "store.flights.tail");
  check int "still no promote" 0 (assoc "promotes" (Mirror.stats m))

(* Busy is not loss, but a busy source that then dies is. The link is
   waiting out A's hints, on the same connection, when A goes away:
   the failed handshakes spend the budget of 2 like failed reconnects,
   the mirror finds A unreachable, counts the source lost and promotes
   the replica. *)
let test_busy_source_killed_is_lost () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha, pub = busy_source root_a ~n:20 in
  let port_a = Relay.port ha in
  let stopped_a = ref false in
  Fun.protect ~finally:(fun () -> if not !stopped_a then Relay.stop ha)
  @@ fun () ->
  Fun.protect ~finally:(fun () -> Relay.Client.close pub) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  with_overload ~port:port_a @@ fun release ->
  Fun.protect ~finally:release @@ fun () ->
  let m =
    Mirror.start hb
      (mcfg ~globs:[ "flights" ] ~max_attempts:2 ~promote_on_loss:true
         ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"link paused on busy" (fun () ->
      assoc "busy_backoffs" (Mirror.stats m) >= 1);
  stopped_a := true;
  Relay.stop ha;
  poll ~deadline_s:20.0 ~what:"replica promoted" (fun () ->
      assoc "promotes" (Mirror.stats m) >= 1);
  let stats = Mirror.stats m in
  check int "the source was lost once" 1 (assoc "sources_lost" stats);
  check int "promoted once" 1 (assoc "promotes" stats)

(* The sessions wait busy out by the same policy, also on their first
   handshake: a subscriber session opened with [~from:0] on a source
   held in Overloaded stays inside [subscribe] on its one connection,
   with no reconnect budget at all, and returns once the source
   recovers, replaying every stored frame from the offset it asked
   for. *)
let test_busy_session_subscribe_waits () =
  with_root @@ fun root_a ->
  let n = 20 in
  let ha, pub = busy_source root_a ~n in
  let port = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  Fun.protect ~finally:(fun () -> Relay.Client.close pub) @@ fun () ->
  with_overload ~port @@ fun release ->
  let opened = ref None in
  let opener =
    Thread.create
      (fun () ->
        opened :=
          Some
            (try
               Ok
                 (Session.subscribe ~from:0
                    (Session.config ~max_attempts:0 ~port ())
                    ~stream:"flights" Abi.arm_32)
             with e -> Error e))
      ()
  in
  poll ~what:"subscribe shed with busy" (fun () ->
      relay_stat ~port "subscribe_busy" >= 3);
  check bool "still inside subscribe" true (Option.is_none !opened);
  release ();
  Thread.join opener;
  match !opened with
  | None -> Alcotest.fail "subscribe returned nothing"
  | Some (Error e) ->
    Alcotest.failf "subscribe failed: %s" (Printexc.to_string e)
  | Some (Ok sub) ->
    Fun.protect ~finally:(fun () -> Session.close_subscriber sub) @@ fun () ->
    let seqs =
      List.init n (fun _ ->
          match Session.recv_subscriber sub with
          | Some (_, v) -> seq_of v
          | None -> Alcotest.fail "session closed early")
    in
    check (Alcotest.list int) "every stored frame, from offset 0"
      (List.init n Fun.id) seqs;
    check int "busy is no reconnect" 0 (Session.subscriber_reconnects sub)

(* A source that still answers is not lost, even when it refuses every
   resubscribe. A memory-only source restarts on the same port without
   the stream (its publisher is gone) — with [revoke], also without the
   mirror's key: the link's budget runs out on [unknown stream] (or
   [unknown key-id]) answers, the mirror asks the source once more,
   finds it alive, and parks the link. With promote-on-loss armed, the
   replica must not become a second writable owner. *)
let test_refusing_source_not_promoted ~revoke () =
  with_root @@ fun root_b ->
  let key = ("k1", "mirror-secret") in
  let ha = Relay.start (Relay.listen ~auth_keys:[ key ] ()) in
  let port_a = Relay.port ha in
  let stopped_a = ref false in
  Fun.protect ~finally:(fun () -> if not !stopped_a then Relay.stop ha)
  @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let m =
    Mirror.start hb
      (mcfg ~max_attempts:8 ~promote_on_loss:true ~source_auth:key
         ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"link up" (fun () ->
      assoc "links_established" (Mirror.stats m) >= 1);
  let n = 10 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  Relay.Client.close pub;
  stopped_a := true;
  Relay.stop ha;
  let ha2 =
    Relay.start
      (Relay.listen ~port:port_a
         ~auth_keys:[ (if revoke then ("k2", "rotated-secret") else key) ] ())
  in
  Fun.protect ~finally:(fun () -> Relay.stop ha2) @@ fun () ->
  poll ~what:"the refusing source parked the link" (fun () ->
      assoc "links_refused" (Mirror.stats m) >= 1);
  Thread.delay 0.3 (* several rescans: a late promote would show *);
  let stats = Mirror.stats m in
  check int "a source that answers is not lost" 0
    (assoc "sources_lost" stats);
  check int "never promoted" 0 (assoc "promotes" stats);
  let c = Relay.Client.connect ~port:port_b () in
  Fun.protect ~finally:(fun () -> Relay.Client.close c) @@ fun () ->
  match Relay.Client.publish c ~stream:"flights" with
  | _ -> Alcotest.fail "the replica accepted a plain publisher"
  | exception Relay.Client.Error msg ->
    check bool "the replica stays read-only" true (contains msg "read-only")

(* ------------------------------------------------------------------ *)
(* The link lives in the relay                                          *)
(* ------------------------------------------------------------------ *)

(* Catch-up does not wait for the replica's fsync. The replica store
   syncs every 5 s, the source holds a backlog of three 8192-frame
   windows plus one, and the link's deadline (10 s) outlasts the sync
   interval, so a link that held replicated frames until the replica's
   store acknowledged them durable would stall for the first sync. The
   replica must hold the whole backlog within 3 s, and serve it exactly
   once from offset 0. *)
let test_catchup_ignores_replica_fsync () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb =
    Relay.start
      (Relay.listen
         ~store:
           { (Relay.Store.default_config ~root:root_b) with
             fsync = Relay.Store.Interval 5.0 }
         ())
  in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = (3 * 8192) + 1 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  poll ~what:"source stored the backlog" (fun () ->
      relay_stat ~port:port_a "store.flights.tail" >= n);
  let m =
    Mirror.start hb (mcfg ~io_timeout_s:10.0 ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~deadline_s:3.0 ~what:"replica caught up before its first fsync"
    (fun () -> relay_stat ~port:port_b "store.flights.tail" >= n);
  check
    (Alcotest.list int)
    "replica serves the backlog exactly once" (List.init n Fun.id)
    (read_from ~port:port_b ~stream:"flights" ~from:0 n);
  check int "no duplicate appended" n
    (relay_stat ~port:port_b "store.flights.tail");
  Relay.Client.close pub

(* Stopping the local relay closes its replication links. That is no
   source outage: the link must not relink, spend its budget, count the
   source lost or promote — and the mirror still stops promptly. *)
let test_local_shutdown_not_source_loss () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start (Relay.listen ~store:(store_cfg root_a) ()) in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  Fun.protect ~finally:(fun () -> Relay.Client.close pub) @@ fun () ->
  let n = 10 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let m =
    Mirror.start hb
      (mcfg ~max_attempts:2 ~promote_on_loss:true ~source_port:port_a ())
  in
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= n);
  Relay.stop hb;
  Thread.delay 0.3 (* several rescans: a relink or promote would show *);
  let t0 = Unix.gettimeofday () in
  Mirror.stop m;
  let stop_s = Unix.gettimeofday () -. t0 in
  check bool (Printf.sprintf "Mirror.stop returned in %.3f s" stop_s) true
    (stop_s < 1.0);
  let stats = Mirror.stats m in
  check int "one link, established once" 1 (assoc "links_established" stats);
  check int "no relink" 0 (assoc "reconnects" stats);
  check int "the source was not lost" 0 (assoc "sources_lost" stats);
  check int "never promoted" 0 (assoc "promotes" stats)

(* ------------------------------------------------------------------ *)
(* Restart: persisted advertisement metadata is re-advertised           *)
(* ------------------------------------------------------------------ *)

let test_restart_readvertises_metadata () =
  with_root @@ fun root ->
  let h1 = Relay.start (Relay.listen ~store:(store_cfg root) ()) in
  let port1 = Relay.port h1 in
  let id1 = Relay.relay_id h1 in
  let pub, sender, fmt =
    make_publisher
      ~meta:
        [ ("subject", "flights"); ("version", "7"); ("fingerprint", "fp-persist") ]
      ~port:port1 ~stream:"flights" ()
  in
  publish sender fmt 0;
  poll ~what:"frame stored" (fun () ->
      relay_stat ~port:port1 "store.flights.tail" >= 1);
  Relay.Client.close pub;
  Relay.stop h1;
  (* a fresh process over the same store: the stream comes back with
     its registry binding and its replication identity *)
  let h2 = Relay.start (Relay.listen ~store:(store_cfg root) ()) in
  let port2 = Relay.port h2 in
  Fun.protect ~finally:(fun () -> Relay.stop h2) @@ fun () ->
  check string "relay id persisted across restart" id1
    (Relay.relay_id h2);
  let c = Relay.Client.connect ~port:port2 () in
  let meta, schema = Relay.Client.describe c ~stream:"flights" in
  check (Alcotest.option string) "subject recovered" (Some "flights")
    (List.assoc_opt "subject" meta);
  check (Alcotest.option string) "version recovered" (Some "7")
    (List.assoc_opt "version" meta);
  check (Alcotest.option string) "fingerprint recovered" (Some "fp-persist")
    (List.assoc_opt "fingerprint" meta);
  check (Alcotest.option string) "still owned by the original id" (Some id1)
    (List.assoc_opt "origin" meta);
  check string "schema recovered" Fx.schema_a schema;
  check bool "recovery counted" true
    (relay_stat ~port:port2 "advert_meta_recovered" >= 1);
  (* LIST sees the recovered stream *)
  check (Alcotest.list string) "LIST serves the recovered stream"
    [ "flights" ]
    (Relay.Client.list_streams c);
  Relay.Client.close c

(* ------------------------------------------------------------------ *)

let () =
  Random.self_init ();
  Alcotest.run "mirror"
    [ ( "replication",
        [ Alcotest.test_case "A->B frames + metadata, read-only replica"
            `Quick test_replicates_frames_and_metadata
        ; Alcotest.test_case "compressed link: byte-exact fidelity" `Quick
            test_compressed_link_fidelity
        ; Alcotest.test_case "corrupt sealed frame re-links, exactly once"
            `Quick test_corrupt_sealed_frame_relinks
        ; Alcotest.test_case "A<->B loops terminate, no amplification"
            `Quick test_bidirectional_no_amplification
        ; Alcotest.test_case "idle link does not churn, byte-exact replica"
            `Quick test_idle_link_does_not_churn
        ; Alcotest.test_case "idle link to a source named localhost" `Quick
            (test_idle_link_does_not_churn ~source_host:"localhost")
        ; Alcotest.test_case "reused format id replicated" `Quick
            test_reused_format_id_replicated ] )
    ; ( "overload",
        [ Alcotest.test_case "busy pauses the link, spends no budget" `Quick
            test_busy_pauses_link
        ; Alcotest.test_case "busy source killed: lost and promoted" `Quick
            test_busy_source_killed_is_lost
        ; Alcotest.test_case "busy first subscribe waits, then replays" `Quick
            test_busy_session_subscribe_waits ] )
    ; ( "failover",
        [ Alcotest.test_case "explicit promote transfers ownership" `Quick
            test_promote_transfers_ownership
        ; Alcotest.test_case "promote-on-loss failover" `Quick
            test_promote_on_loss_failover
        ; Alcotest.test_case "promotion fsyncs the replica" `Quick
            test_promote_syncs_replica
        ; Alcotest.test_case "refusing source parks, never promotes" `Quick
            (test_refusing_source_not_promoted ~revoke:false)
        ; Alcotest.test_case "source revoking the key is not lost" `Quick
            (test_refusing_source_not_promoted ~revoke:true) ] )
    ; ( "in-relay",
        [ Alcotest.test_case "catch-up does not wait for the replica fsync"
            `Quick test_catchup_ignores_replica_fsync
        ; Alcotest.test_case "local shutdown is not a source outage" `Quick
            test_local_shutdown_not_source_loss ] )
    ; ( "restart",
        [ Alcotest.test_case "persisted metadata re-advertised" `Quick
            test_restart_readvertises_metadata ] ) ]
