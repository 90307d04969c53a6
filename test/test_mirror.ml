(** Tests for relay-to-relay stream replication (lib/mirror,
    doc/MIRROR.md): an A->B link replicating frames and advertisement
    metadata verbatim, read-only enforcement on the replica, exact
    frame counts across a bidirectional A<->B pair (origin-tagged loop
    prevention — no amplification), explicit promotion, promote-on-loss
    failover, and re-advertisement of persisted metadata after a
    relayd restart.

    Timing-sensitive (live links, rescans, backoff budgets): runs
    under [dune build @mirror] and the smoke alias, not tier-1
    [runtest]. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Relay = Omf_relay.Relay
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

let event seq =
  match Fx.value_a with
  | Value.Record fields ->
    Value.Record
      (List.map
         (fun (k, v) ->
           if String.equal k "fltNum" then (k, Value.Int (Int64.of_int seq))
           else (k, v))
         fields)
  | _ -> assert false

let seq_of v =
  match Value.field_exn v "fltNum" with
  | Value.Int i -> Int64.to_int i
  | _ -> -1

(* an advertised stream (with a registry binding) plus a publisher
   endpoint on it *)
let make_publisher ?meta ~port ~stream () =
  let client = Relay.Client.connect ~port () in
  Relay.Client.advertise ?meta client ~stream ~schema:Fx.schema_a;
  let link = Relay.Client.publish client ~stream in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let sender = Endpoint.Sender.create link (Memory.create Abi.x86_64) in
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
    ?(compress = false) ~source_port ~local_port ~local_relay_id () =
  Mirror.config ?globs ~rescan_s:0.05 ~io_timeout_s:0.25 ~max_attempts
    ~base_delay_s:0.02 ~max_delay_s:0.1 ~promote_on_loss ~compress
    ~source_host:"127.0.0.1" ~source_port ~local_port ~local_relay_id ()

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
  let ha = Relay.start ~store:(store_cfg root_a) () in
  let port_a = Relay.port (Relay.relay ha) in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start ~store:(store_cfg root_b) () in
  let port_b = Relay.port (Relay.relay hb) in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_a = Relay.relay_id (Relay.relay ha) in
  let id_b = Relay.relay_id (Relay.relay hb) in
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
    Mirror.start
      (mcfg ~source_port:port_a ~local_port:port_b ~local_relay_id:id_b ())
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
  let ha = Relay.start ~store:(store_cfg root_a) () in
  let port_a = Relay.port (Relay.relay ha) in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start ~store:(store_cfg root_b) () in
  let port_b = Relay.port (Relay.relay hb) in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_b = Relay.relay_id (Relay.relay hb) in
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
    Mirror.start
      (mcfg ~compress:true ~source_port:port_a ~local_port:port_b
         ~local_relay_id:id_b ())
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
(* Bidirectional A <-> B: loop prevention, no amplification             *)
(* ------------------------------------------------------------------ *)

let test_bidirectional_no_amplification () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start ~store:(store_cfg root_a) () in
  let port_a = Relay.port (Relay.relay ha) in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start ~store:(store_cfg root_b) () in
  let port_b = Relay.port (Relay.relay hb) in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_a = Relay.relay_id (Relay.relay ha) in
  let id_b = Relay.relay_id (Relay.relay hb) in
  let m_ab =
    Mirror.start
      (mcfg ~source_port:port_a ~local_port:port_b ~local_relay_id:id_b ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m_ab) @@ fun () ->
  let m_ba =
    Mirror.start
      (mcfg ~source_port:port_b ~local_port:port_a ~local_relay_id:id_a ())
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
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Promotion: explicit ownership transfer                               *)
(* ------------------------------------------------------------------ *)

let test_promote_transfers_ownership () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let ha = Relay.start ~store:(store_cfg root_a) () in
  let port_a = Relay.port (Relay.relay ha) in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb = Relay.start ~store:(store_cfg root_b) () in
  let port_b = Relay.port (Relay.relay hb) in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_b = Relay.relay_id (Relay.relay hb) in
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 10 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let m =
    Mirror.start
      (mcfg ~source_port:port_a ~local_port:port_b ~local_relay_id:id_b ())
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
  let ha = Relay.start ~store:(store_cfg root_a) () in
  let port_a = Relay.port (Relay.relay ha) in
  let stopped_a = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped_a then Relay.stop ha)
  @@ fun () ->
  let hb = Relay.start ~store:(store_cfg root_b) () in
  let port_b = Relay.port (Relay.relay hb) in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let id_b = Relay.relay_id (Relay.relay hb) in
  let pub, sender, fmt = make_publisher ~port:port_a ~stream:"flights" () in
  let n = 15 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let m =
    Mirror.start
      (mcfg ~max_attempts:2 ~promote_on_loss:true ~source_port:port_a
         ~local_port:port_b ~local_relay_id:id_b ())
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

(* ------------------------------------------------------------------ *)
(* Restart: persisted advertisement metadata is re-advertised           *)
(* ------------------------------------------------------------------ *)

let test_restart_readvertises_metadata () =
  with_root @@ fun root ->
  let h1 = Relay.start ~store:(store_cfg root) () in
  let port1 = Relay.port (Relay.relay h1) in
  let id1 = Relay.relay_id (Relay.relay h1) in
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
  let h2 = Relay.start ~store:(store_cfg root) () in
  let port2 = Relay.port (Relay.relay h2) in
  Fun.protect ~finally:(fun () -> Relay.stop h2) @@ fun () ->
  check string "relay id persisted across restart" id1
    (Relay.relay_id (Relay.relay h2));
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
        ; Alcotest.test_case "A<->B loops terminate, no amplification"
            `Quick test_bidirectional_no_amplification ] )
    ; ( "failover",
        [ Alcotest.test_case "explicit promote transfers ownership" `Quick
            test_promote_transfers_ownership
        ; Alcotest.test_case "promote-on-loss failover" `Quick
            test_promote_on_loss_failover ] )
    ; ( "restart",
        [ Alcotest.test_case "persisted metadata re-advertised" `Quick
            test_restart_readvertises_metadata ] ) ]
