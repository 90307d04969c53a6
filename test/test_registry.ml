(** Tests for the versioned schema registry (doc/REGISTRY.md):
    fingerprint-idempotent registration, compatibility gating with
    structured diffs, journal-backed recovery across restarts, the
    binary frame protocol and the metrics listener, the caching
    resolver, and async
    discovery overlapping first-message delivery with the registry
    fetch (zero loss). *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Registry = Omf_registry.Registry
module Store = Omf_store.Store
module Http = Omf_httpd.Http
module Relay = Omf_relay.Relay
module Proto = Omf_relay.Relay_proto
module Discovery = Omf_xml2wire.Discovery
module Catalog = Omf_xml2wire.Catalog
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let replace = Omf_testkit.Strings.replace
let assoc key stats = Option.value ~default:0 (List.assoc_opt key stats)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let with_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-registry-%d-%d" (Unix.getpid ())
         (Random.int 1000000))
  in
  let rec rm path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

(* schema_a with one additive field: a backward-safe upgrade *)
let schema_v2 =
  replace
    ~sub:{|<xsd:element name="eta" type="xsd:unsigned-long" />|}
    ~by:
      {|<xsd:element name="eta" type="xsd:unsigned-long" />
    <xsd:element name="gate" type="xsd:string" />|}
    Fx.schema_a

(* schema_a with a field removed: rejected by the backward gate *)
let schema_removed =
  replace
    ~sub:{|    <xsd:element name="equip" type="xsd:string" />
|}
    ~by:"" Fx.schema_a

(* same structure as schema_a, different documentation text: must
   canonicalize to the same fingerprint *)
let schema_reworded =
  replace ~sub:"<xsd:documentation>ASDOff</xsd:documentation>"
    ~by:"<xsd:documentation>ASDOff, reworded docs</xsd:documentation>"
    Fx.schema_a

(* ------------------------------------------------------------------ *)
(* Fingerprints and idempotent registration                             *)
(* ------------------------------------------------------------------ *)

let test_idempotent_registration () =
  let reg = Registry.create () in
  let v1 = Registry.register reg ~subject:"flights" Fx.schema_a in
  check int "first registration is version 1" 1 v1.Registry.version;
  check string "fingerprint is the canonical digest"
    (Registry.fingerprint_of Fx.schema_a)
    v1.Registry.fingerprint;
  (* same structure, different prose: same fingerprint, same version *)
  check string "documentation does not change the fingerprint"
    v1.Registry.fingerprint
    (Registry.fingerprint_of schema_reworded);
  let again = Registry.register reg ~subject:"flights" schema_reworded in
  check int "re-registration is idempotent" 1 again.Registry.version;
  check int "chain did not grow" 1
    (List.length (Registry.versions reg "flights"));
  (* a genuinely new structure appends *)
  let v2 = Registry.register reg ~subject:"flights" schema_v2 in
  check int "additive upgrade becomes version 2" 2 v2.Registry.version;
  check bool "fingerprints differ" true
    (not (String.equal v1.Registry.fingerprint v2.Registry.fingerprint));
  (* chains are per subject *)
  let other = Registry.register reg ~subject:"weather" Fx.schema_a in
  check int "fresh subject starts at 1" 1 other.Registry.version;
  check bool "content addressing finds the first home" true
    (Registry.by_fingerprint reg v1.Registry.fingerprint <> None);
  let stats = Registry.stats reg in
  check bool "idempotent hits counted" true
    (Option.value ~default:0 (List.assoc_opt "register_idempotent" stats) >= 1);
  Registry.close reg

(* ------------------------------------------------------------------ *)
(* Compatibility gating                                                 *)
(* ------------------------------------------------------------------ *)

let test_backward_gate_rejects_removal () =
  let reg = Registry.create () in
  (* default mode is Backward *)
  ignore (Registry.register reg ~subject:"flights" Fx.schema_a);
  (match Registry.register reg ~subject:"flights" schema_removed with
  | _ -> Alcotest.fail "expected Incompatible"
  | exception Registry.Incompatible { subject; mode; reports } ->
    check string "refusal names the subject" "flights" subject;
    check bool "refusal names the mode" true (mode = Registry.Backward);
    let lines = Registry.diff_lines reports in
    check bool "structured diff present" true (lines <> []);
    check bool "diff names the removed field" true
      (List.exists (fun l -> contains l "equip") lines));
  check int "refused registration did not append" 1
    (List.length (Registry.versions reg "flights"));
  (* the same document passes once the subject is gated forward-only *)
  Registry.set_mode reg ~subject:"flights" Registry.Forward;
  let v = Registry.register reg ~subject:"flights" schema_removed in
  check int "removal is fine under the forward gate" 2 v.Registry.version;
  (* and No_check accepts even a retype *)
  let retyped =
    replace
      ~sub:{|<xsd:element name="fltNum" type="xsd:integer" />|}
      ~by:{|<xsd:element name="fltNum" type="xsd:string" />|}
      Fx.schema_a
  in
  Registry.set_mode reg ~subject:"flights" Registry.No_check;
  check int "no_check accepts a retype" 3
    (Registry.register reg ~subject:"flights" retyped).Registry.version;
  let stats = Registry.stats reg in
  check bool "rejections counted" true
    (Option.value ~default:0 (List.assoc_opt "register_rejected" stats) >= 1);
  Registry.close reg

(* ------------------------------------------------------------------ *)
(* Journal-backed recovery                                              *)
(* ------------------------------------------------------------------ *)

let test_recovery_across_restart () =
  with_root (fun root ->
      let cfg = Store.default_config ~root in
      let reg = Registry.create ~store:cfg () in
      let v1 = Registry.register reg ~subject:"flights" Fx.schema_a in
      let v2 = Registry.register reg ~subject:"flights" schema_v2 in
      Registry.set_mode reg ~subject:"weather" Registry.No_check;
      ignore (Registry.register reg ~subject:"weather" Fx.schema_b);
      Registry.close reg;
      (* reopen the same root: everything must come back *)
      let reg = Registry.create ~store:cfg () in
      check
        Alcotest.(list string)
        "subjects recovered"
        [ "flights"; "weather" ]
        (Registry.subjects reg);
      check int "chain recovered" 2
        (List.length (Registry.versions reg "flights"));
      let latest = Option.get (Registry.latest reg "flights") in
      check int "latest version" 2 latest.Registry.version;
      check string "fingerprint stable across restart"
        v2.Registry.fingerprint latest.Registry.fingerprint;
      check string "schema text verbatim" schema_v2 latest.Registry.schema;
      check bool "per-subject mode override recovered" true
        (Registry.mode reg ~subject:"weather" = Registry.No_check);
      check bool "content addressing recovered" true
        (Registry.by_fingerprint reg v1.Registry.fingerprint <> None);
      (* idempotency holds across the restart *)
      check int "re-registering the latest is idempotent" 2
        (Registry.register reg ~subject:"flights" schema_v2).Registry.version;
      check int "chain did not grow" 2
        (List.length (Registry.versions reg "flights"));
      (* and the gate still stands on recovered state *)
      (match Registry.register reg ~subject:"flights" schema_removed with
      | _ -> Alcotest.fail "expected Incompatible after recovery"
      | exception Registry.Incompatible _ -> ());
      Registry.close reg)

(* Older registries also logged ['D' "id\n" blob] records, one per
   global descriptor id. A log written by one must still open: each such
   record is skipped as junk and everything around it recovers. *)
let test_recovery_skips_descriptor_records () =
  with_root (fun root ->
      let cfg = Store.default_config ~root in
      let reg = Registry.create ~store:cfg () in
      let v1 = Registry.register reg ~subject:"flights" Fx.schema_a in
      Registry.set_mode reg ~subject:"flights" Registry.Full;
      Registry.close reg;
      let fmt =
        Format.Registry.register (Format.Registry.create Abi.x86_64) Fx.decl_a
      in
      let st = Store.open_stream cfg "registry" in
      ignore
        (Store.append st (Bytes.of_string ("D1\n" ^ Format_codec.encode fmt)));
      ignore (Store.sync st);
      Store.close st;
      let reg = Registry.create ~store:cfg () in
      Fun.protect ~finally:(fun () -> Registry.close reg) @@ fun () ->
      check (Alcotest.option string) "version recovered"
        (Some v1.Registry.fingerprint)
        (Option.map
           (fun v -> v.Registry.fingerprint)
           (Registry.latest reg "flights"));
      check bool "mode override recovered" true
        (Registry.mode reg ~subject:"flights" = Registry.Full);
      check int "the D record is junk" 1
        (assoc "recovered_junk" (Registry.stats reg)))

(* A subject is stored as the first line of its records, so one that
   is empty or spans lines would come back as junk after a restart: the
   registry refuses it before anything is written. *)
let test_unreadable_subject_refused () =
  with_root (fun root ->
      let cfg = Store.default_config ~root in
      let reg = Registry.create ~store:cfg () in
      List.iter
        (fun subject ->
          match Registry.register reg ~subject Fx.schema_a with
          | _ -> Alcotest.failf "registered subject %S" subject
          | exception Registry.Invalid_subject s ->
            check string "the refusal names the subject" subject s)
        [ "a\nb"; "" ];
      (match Registry.set_mode reg ~subject:"a\nb" Registry.Full with
      | () -> Alcotest.fail "set a mode on a multi-line subject"
      | exception Registry.Invalid_subject _ -> ());
      ignore (Registry.register reg ~subject:"a/b" Fx.schema_a);
      Registry.close reg;
      let reg = Registry.create ~store:cfg () in
      Fun.protect ~finally:(fun () -> Registry.close reg) @@ fun () ->
      check int "no junk record" 0
        (assoc "recovered_junk" (Registry.stats reg));
      check
        Alcotest.(list string)
        "only the readable subject" [ "a/b" ] (Registry.subjects reg))

(* ------------------------------------------------------------------ *)
(* Binary protocol and the metrics listener                             *)
(* ------------------------------------------------------------------ *)

let test_server_roundtrip () =
  let reg = Registry.create () in
  let srv = Registry.Server.start ~port:0 ~metrics_port:0 reg in
  Fun.protect ~finally:(fun () -> Registry.Server.shutdown srv) @@ fun () ->
  let port = Registry.Server.port srv in
  let mport = Option.get (Registry.Server.metrics_port srv) in
  let c = Registry.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Registry.Client.close c) @@ fun () ->
  let v, fp = Registry.Client.register c ~subject:"flights" Fx.schema_a in
  check int "registered v1 over the wire" 1 v;
  check string "wire fingerprint" (Registry.fingerprint_of Fx.schema_a) fp;
  (* a gate refusal carries the diff lines over the wire *)
  (match Registry.Client.register c ~subject:"flights" schema_removed with
  | _ -> Alcotest.fail "expected Rejected"
  | exception Registry.Client.Rejected msg ->
    check bool "refusal carries the diff" true (contains msg "equip"));
  let rejected subject text =
    match Registry.Client.register c ~subject text with
    | _ -> Alcotest.failf "registered %S under %S" text subject
    | exception Registry.Client.Rejected msg -> msg
  in
  check bool "a document that does not parse is refused" true
    (contains (rejected "flights" "<not-a-schema>") "invalid schema");
  check bool "an empty subject is refused" true
    (contains (rejected "" Fx.schema_a) "invalid subject");
  let got = Option.get (Registry.Client.get c ~subject:"flights" `Latest) in
  check string "schema round-trips" Fx.schema_a got.Registry.schema;
  let byfp = Option.get (Registry.Client.by_fingerprint c fp) in
  check int "content-addressed fetch" 1 byfp.Registry.version;
  check string "content-addressed fetch names the subject" "flights"
    byfp.Registry.subject;
  check bool "unknown version is None" true
    (Registry.Client.get c ~subject:"flights" (`N 9) = None);
  check bool "unknown subject is None" true
    (Registry.Client.get c ~subject:"none" `Latest = None);
  (match Registry.Client.subjects c with
  | [ (s, n, m) ] ->
    check string "listed subject" "flights" s;
    check int "listed versions" 1 n;
    check string "listed mode" "backward" m
  | l -> Alcotest.failf "unexpected subject list (%d entries)" (List.length l));
  let v2, fp2 = Registry.Client.register c ~subject:"flights" schema_v2 in
  check int "a compatible document is version 2" 2 v2;
  ignore (Registry.Client.register c ~subject:"flight plans" Fx.schema_a);
  check
    Alcotest.(list (triple string int string))
    "a subject with a space is listed"
    [ ("flight plans", 1, "backward"); ("flights", 2, "backward") ]
    (Registry.Client.subjects c);
  let latest = Option.get (Registry.Client.get c ~subject:"flights" `Latest) in
  check string "latest carries its fingerprint" fp2 latest.Registry.fingerprint;
  check bool "server counters visible" true
    (Registry.Client.stats c <> []);
  (* the metrics listener, on the same loop: GET only *)
  let r = Http.request ~port:mport ~meth:"GET" ~path:"/metrics" () in
  check int "GET /metrics" 200 r.Http.status;
  check bool "registry counters as Prometheus text" true
    (contains r.Http.body "omf_registry_");
  let r = Http.request ~port:mport ~meth:"POST" ~path:"/metrics" () in
  check int "POST /metrics is 400" 400 r.Http.status

(* A start whose metrics port is taken raises, and leaves nothing
   behind: the frame port it had bound is free again, no descriptor
   stays open and no loop thread keeps running. *)
let test_server_busy_metrics_port () =
  let module Listen = Omf_testkit.Listen in
  let threads () = Array.length (Sys.readdir "/proc/self/task") in
  Listen.with_busy_port @@ fun metrics_port ->
  let sock, port = Omf_reactor.Reactor.listener ~port:0 () in
  Unix.close sock;
  let before = threads () in
  Listen.refused_without_leak ~rounds:1
    [ ( "registry with a busy metrics port",
        fun () ->
          ignore
            (Registry.Server.start ~port ~metrics_port (Registry.create ()))
      ) ];
  check int "no thread left running" before (threads ());
  Listen.rebind port

(* ------------------------------------------------------------------ *)
(* Caching resolver                                                     *)
(* ------------------------------------------------------------------ *)

let test_resolver_caching () =
  let reg = Registry.create () in
  let srv = Registry.Server.start ~port:0 reg in
  Fun.protect ~finally:(fun () -> Registry.Server.shutdown srv) @@ fun () ->
  let c = Registry.Client.connect ~port:(Registry.Server.port srv) () in
  Fun.protect ~finally:(fun () -> Registry.Client.close c) @@ fun () ->
  let r = Registry.Resolver.create ~neg_ttl_s:0.05 c in
  check bool "miss before registration" true
    (Registry.Resolver.resolve r ~subject:"flights" `Latest = None);
  check bool "miss is negatively cached" true
    (Registry.Resolver.resolve r ~subject:"flights" `Latest = None);
  check bool "negative hit counted" true
    (assoc "negative_hits" (Registry.Resolver.stats r) >= 1);
  ignore (Registry.Client.register c ~subject:"flights" Fx.schema_a);
  Thread.delay 0.08;
  (* the negative entry expired *)
  let v =
    Option.get (Registry.Resolver.resolve r ~subject:"flights" `Latest)
  in
  check int "resolves to version 1" 1 v.Registry.version;
  (* positive entries are immutable: (subject, N) hits never refetch *)
  let hits0 = assoc "hits" (Registry.Resolver.stats r) in
  ignore (Registry.Resolver.resolve r ~subject:"flights" (`N 1));
  ignore (Registry.Resolver.resolve r ~subject:"flights" (`N 1));
  check bool "pinned-version resolves hit the cache" true
    (assoc "hits" (Registry.Resolver.stats r) >= hits0 + 2)

(* After the server dies the first request on a client link sees EOF;
   the next write meets EPIPE/ECONNRESET. Every such failure must reach
   the resolver as an outage (None, counted), never as a raw
   [Unix_error] escaping to its caller. *)
let test_resolver_survives_transport_failures () =
  let reg = Registry.create () in
  let srv = Registry.Server.start ~port:0 reg in
  Fun.protect ~finally:(fun () -> Registry.Server.shutdown srv) @@ fun () ->
  let c = Registry.Client.connect ~port:(Registry.Server.port srv) () in
  Fun.protect ~finally:(fun () -> Registry.Client.close c) @@ fun () ->
  let r = Registry.Resolver.create c in
  Registry.Server.shutdown srv;
  Thread.delay 0.05;
  check bool "first uncached resolve is None" true
    (Registry.Resolver.resolve r ~subject:"flights" `Latest = None);
  check bool "second uncached resolve is None" true
    (Registry.Resolver.resolve r ~subject:"weather" `Latest = None);
  check int "every outage counted" 2 (assoc "errors" (Registry.Resolver.stats r))

(* ------------------------------------------------------------------ *)
(* Async discovery overlapping first-message delivery                   *)
(* ------------------------------------------------------------------ *)

(* A subscriber connects to the relay and starts buffering raw frames
   immediately, while its schema fetch from the registry is still in
   flight (gated on a condition variable we control); once the fetch
   lands, every buffered frame decodes — the first message arrived
   before the fetch completed, and nothing was lost. *)
let test_async_discovery_zero_loss () =
  let reg = Registry.create () in
  let rsrv = Registry.Server.start ~port:0 reg in
  Fun.protect ~finally:(fun () -> Registry.Server.shutdown rsrv) @@ fun () ->
  let rc = Registry.Client.connect ~port:(Registry.Server.port rsrv) () in
  Fun.protect ~finally:(fun () -> Registry.Client.close rc) @@ fun () ->
  let rv, fp = Registry.Client.register rc ~subject:"flights" Fx.schema_a in
  let resolver = Registry.Resolver.create rc in
  (* the relay side: a publisher advertising its registry binding *)
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub = Relay.Client.connect ~port () in
  Relay.Client.advertise pub
    ~meta:
      [ ("subject", "flights"); ("version", string_of_int rv)
      ; ("fingerprint", fp) ]
    ~stream:"flights" ~schema:Fx.schema_a;
  let plink = Relay.Client.publish pub ~stream:"flights" in
  let pcat = Catalog.create Abi.x86_64 in
  ignore (Omf_xml2wire.Xml2wire.register_schema pcat Fx.schema_a);
  let fmt = Option.get (Catalog.find_format pcat "ASDOffEvent") in
  let sender = Endpoint.Sender.create plink (Memory.create Abi.x86_64) in
  (* the subscriber: the stream's advertisement, read with DESCRIBE,
     carries subject@version + fingerprint, so it knows what to ask the
     registry for *)
  let sub = Relay.Client.connect ~port () in
  let meta, _schema = Relay.Client.describe sub ~stream:"flights" in
  let _schema, slink = Relay.Client.subscribe sub ~stream:"flights" in
  check bool "advertisement carries the subject" true
    (List.assoc_opt "subject" meta = Some "flights");
  check bool "advertisement carries the version" true
    (List.assoc_opt "version" meta = Some (string_of_int rv));
  check bool "advertisement carries the fingerprint" true
    (List.assoc_opt "fingerprint" meta = Some fp);
  (* the registry fetch, gated so it cannot complete until released *)
  let gate = Mutex.create () in
  let cv = Condition.create () in
  let released = ref false in
  let subject = Option.get (List.assoc_opt "subject" meta) in
  let gated_source =
    Discovery.from_fetcher ~label:("registry:" ^ subject) (fun () ->
        Mutex.lock gate;
        while not !released do
          Condition.wait cv gate
        done;
        Mutex.unlock gate;
        match Registry.Resolver.resolve resolver ~subject `Latest with
        | Some v -> v.Registry.schema
        | None -> failwith "subject not registered")
  in
  let catalog = Catalog.create Abi.sparc_32 in
  let async = Discovery.discover_async catalog [ gated_source ] in
  (* publish while the fetch is parked; buffer the raw frames *)
  let n = 5 in
  let event seq =
    Value.set_field Fx.value_a "fltNum" (Value.Int (Int64.of_int seq))
  in
  for seq = 0 to n - 1 do
    Endpoint.Sender.send_value sender fmt (event seq)
  done;
  let buffered = ref [] in
  let messages = ref 0 in
  while !messages < n do
    match Link.recv slink with
    | None -> Alcotest.fail "relay closed the stream"
    | Some frame ->
      (* the link lends [frame] until the next recv *)
      buffered := Bytes.copy frame :: !buffered;
      if
        Bytes.length frame > 0
        && Char.equal (Bytes.get frame 0) Proto.frame_message
      then incr messages
  done;
  let buffered = List.rev !buffered in
  (* the acceptance point: all n messages are in hand while the
     registry fetch is still in flight *)
  check bool "messages received before the fetch completed" true
    (Discovery.poll async = None);
  Mutex.lock gate;
  released := true;
  Condition.broadcast cv;
  Mutex.unlock gate;
  let outcome = Discovery.await async in
  check string "fetch came from the registry" "registry"
    outcome.Discovery.origin;
  (* now decode the buffer: zero loss, in order *)
  let q = ref buffered in
  let replay_link =
    { Link.send = (fun _ -> ())
    ; recv =
        (fun () ->
          match !q with
          | [] -> None
          | f :: rest ->
            q := rest;
            Some f)
    ; close = (fun () -> ()) }
  in
  let receiver =
    Endpoint.Receiver.create replay_link
      (Catalog.registry catalog)
      (Memory.create Abi.sparc_32)
  in
  let seq_of v =
    match Value.field_exn v "fltNum" with
    | Value.Int i -> Int64.to_int i
    | _ -> -1
  in
  for expect = 0 to n - 1 do
    match Endpoint.Receiver.recv_value receiver with
    | Some (f, v) ->
      check string "decoded format" "ASDOffEvent" f.Format.name;
      check int "in order, zero loss" expect (seq_of v)
    | None -> Alcotest.failf "lost message %d" expect
  done;
  check bool "buffer fully drained" true
    (Endpoint.Receiver.recv_value receiver = None);
  Relay.Client.close sub;
  Relay.Client.close pub

(* A server that accepts and never answers: the registry client and an
   HTTP GET, given no [?timeout_s], each raise their transport error
   within the default 5 s deadline (plus slack) instead of hanging. The
   listener never calls accept; the kernel completes the handshake. *)
let test_clients_time_out_on_silent_server () =
  Omf_testkit.Listen.with_busy_port @@ fun port ->
  let timed name call =
    let t0 = Unix.gettimeofday () in
    let outcome = try Ok (call ()) with e -> Error e in
    (name, outcome, Unix.gettimeofday () -. t0)
  in
  let registry () =
    let c = Registry.Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Registry.Client.close c) @@ fun () ->
    ignore (Registry.Client.subjects c)
  in
  let http () = ignore (Http.get ~port ~path:"/metrics" ()) in
  let results = ref [] in
  let m = Mutex.create () in
  let run name call =
    Thread.create
      (fun () ->
        let r = timed name call in
        Mutex.protect m (fun () -> results := r :: !results))
      ()
  in
  List.iter Thread.join [ run "registry" registry; run "http" http ];
  List.iter
    (fun (name, outcome, took) ->
      (match (name, outcome) with
      | "registry", Error (Registry.Client.Server_unavailable _)
      | "http", Error (Http.Http_error _) -> ()
      | _, Error e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e)
      | _, Ok () -> Alcotest.failf "%s answered a silent server" name);
      if took > 8.0 then Alcotest.failf "%s gave up after %.1f s" name took)
    !results;
  check int "both clients returned" 2 (List.length !results)

(* ------------------------------------------------------------------ *)

let () =
  Random.self_init ();
  Alcotest.run "registry"
    [ ( "registry"
      , [ Alcotest.test_case "fingerprint-idempotent registration" `Quick
            test_idempotent_registration
        ; Alcotest.test_case "backward gate rejects removal" `Quick
            test_backward_gate_rejects_removal
        ; Alcotest.test_case "journal-backed recovery" `Quick
            test_recovery_across_restart
        ; Alcotest.test_case "old D records recover as junk" `Quick
            test_recovery_skips_descriptor_records
        ; Alcotest.test_case "unreadable subject refused" `Quick
            test_unreadable_subject_refused ] )
    ; ( "server"
      , [ Alcotest.test_case "binary + metrics round-trip" `Quick
            test_server_roundtrip
        ; Alcotest.test_case "busy metrics port leaks nothing" `Quick
            test_server_busy_metrics_port
        ; Alcotest.test_case "clients time out on a silent server" `Quick
            test_clients_time_out_on_silent_server ] )
    ; ( "resolver"
      , [ Alcotest.test_case "caching resolver" `Quick test_resolver_caching
        ; Alcotest.test_case "resolver survives transport failures" `Quick
            test_resolver_survives_transport_failures ] )
    ; ( "async"
      , [ Alcotest.test_case "async discovery: zero loss" `Quick
            test_async_discovery_zero_loss ] ) ]
