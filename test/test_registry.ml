(** Tests for the versioned schema registry (doc/REGISTRY.md):
    fingerprint-idempotent registration, compatibility gating with
    structured diffs, journal-backed recovery across restarts, the
    binary and HTTP JSON surfaces, the caching resolver, and async
    discovery overlapping first-message delivery with the registry
    fetch (zero loss). *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Registry = Omf_registry.Registry
module Store = Omf_store.Store
module Http = Omf_httpd.Http
module Relay = Omf_relay.Relay
module Discovery = Omf_xml2wire.Discovery
module Catalog = Omf_xml2wire.Catalog
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let replace = Omf_testkit.Strings.replace

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

(* ------------------------------------------------------------------ *)
(* Binary protocol + HTTP JSON surfaces                                 *)
(* ------------------------------------------------------------------ *)

let test_server_roundtrip () =
  let reg = Registry.create () in
  let srv = Registry.Server.start ~port:0 ~http_port:0 reg in
  Fun.protect ~finally:(fun () -> Registry.Server.shutdown srv) @@ fun () ->
  let port = Registry.Server.port srv in
  let hport = Option.get (Registry.Server.http_port srv) in
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
  let got = Option.get (Registry.Client.get c ~subject:"flights" `Latest) in
  check string "schema round-trips" Fx.schema_a got.Registry.schema;
  let byfp = Option.get (Registry.Client.by_fingerprint c fp) in
  check int "content-addressed fetch" 1 byfp.Registry.version;
  check bool "unknown version is None" true
    (Registry.Client.get c ~subject:"flights" (`N 9) = None);
  (match Registry.Client.subjects c with
  | [ (s, n, m) ] ->
    check string "listed subject" "flights" s;
    check int "listed versions" 1 n;
    check string "listed mode" "backward" m
  | l -> Alcotest.failf "unexpected subject list (%d entries)" (List.length l));
  check bool "server counters visible" true
    (Registry.Client.stats c <> []);
  (* the HTTP JSON surface over the same registry *)
  let r = Http.request ~port:hport ~meth:"GET" ~path:"/subjects" () in
  check int "GET /subjects" 200 r.Http.status;
  check bool "subjects listed as JSON" true (contains r.Http.body "\"flights\"");
  let r =
    Http.request ~port:hport ~meth:"POST" ~path:"/subjects/flights/versions"
      ~body:schema_v2 ()
  in
  check int "POST register is 201" 201 r.Http.status;
  check bool "POST returns the version" true
    (contains r.Http.body "\"version\":2");
  let r =
    Http.request ~port:hport ~meth:"POST" ~path:"/subjects/flights/versions"
      ~body:schema_removed ()
  in
  check int "gate refusal is 409" 409 r.Http.status;
  check bool "409 body carries the diff" true (contains r.Http.body "equip");
  let r =
    Http.request ~port:hport ~meth:"POST" ~path:"/subjects/flights/versions"
      ~body:"<not-a-schema>" ()
  in
  check int "malformed schema is 400" 400 r.Http.status;
  let r =
    Http.request ~port:hport ~meth:"GET" ~path:"/subjects/flights/versions/latest"
      ()
  in
  check int "GET latest" 200 r.Http.status;
  check bool "latest carries its fingerprint" true
    (contains r.Http.body (Registry.fingerprint_of schema_v2));
  let r = Http.request ~port:hport ~meth:"GET" ~path:("/schemas/ids/" ^ fp) () in
  check int "GET /schemas/ids/<fp>" 200 r.Http.status;
  check bool "fingerprint lookup names the subject" true
    (contains r.Http.body "\"flights\"");
  let r =
    Http.request ~port:hport ~meth:"GET" ~path:"/subjects/none/versions/latest"
      ()
  in
  check int "unknown subject is 404" 404 r.Http.status

(* ------------------------------------------------------------------ *)
(* Caching resolver                                                     *)
(* ------------------------------------------------------------------ *)

let assoc key stats = Option.value ~default:0 (List.assoc_opt key stats)

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
    (assoc "hits" (Registry.Resolver.stats r) >= hits0 + 2);
  check bool "fingerprint resolves from the cache" true
    (Registry.Resolver.resolve_fingerprint r v.Registry.fingerprint <> None);
  (* prefetch warms the cache from a background thread *)
  Registry.Resolver.prefetch r ~subject:"flights" (`N 1);
  check bool "prefetch counted" true
    (assoc "prefetches" (Registry.Resolver.stats r) >= 1);
  (* the discovery source plugs the resolver into a fallback chain *)
  let catalog = Catalog.create Abi.x86_64 in
  let outcome =
    Discovery.discover catalog
      [ Registry.discovery_source r ~subject:"flights" () ]
  in
  check string "discovery origin is the registry" "registry" outcome.Discovery.origin;
  check bool "formats registered" true (outcome.Discovery.formats <> [])

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
  let h = Relay.start () in
  let port = Relay.port (Relay.relay h) in
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
  (* the subscriber: stream advertisement carries subject@version +
     fingerprint, so it knows what to ask the registry for *)
  let sub = Relay.Client.connect ~port () in
  let meta, _schema, slink = Relay.Client.subscribe_meta sub ~stream:"flights" in
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
    match Fx.value_a with
    | Value.Record fields ->
      Value.Record
        (List.map
           (fun (k, v) ->
             if String.equal k "fltNum" then (k, Value.Int (Int64.of_int seq))
             else (k, v))
           fields)
    | _ -> assert false
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
      buffered := frame :: !buffered;
      if
        Bytes.length frame > 0
        && Char.equal (Bytes.get frame 0) Endpoint.frame_message
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

(* A re-triggered keyed discovery supersedes the in-flight one: the
   superseded async raises {!Discovery.Cancelled} immediately, and even
   when its (gated) fetch later lands it registers nothing and bumps no
   win counters — exactly one win is recorded for the stream. *)
let test_async_discovery_supersede_cancels () =
  let stats0 = Discovery.stats () in
  let delta key = assoc key (Discovery.stats ()) - assoc key stats0 in
  let wait ~what cond =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (cond ()) && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    if not (cond ()) then Alcotest.failf "timeout waiting for %s" what
  in
  let gate = Mutex.create () in
  let cv = Condition.create () in
  let released = ref false in
  let entered = ref 0 in
  let exited = ref 0 in
  let gated_source () =
    Discovery.from_fetcher ~label:"registry:flights" (fun () ->
        Mutex.lock gate;
        incr entered;
        while not !released do
          Condition.wait cv gate
        done;
        Mutex.unlock gate;
        incr exited;
        Fx.schema_a)
  in
  let c1 = Catalog.create Abi.x86_64 in
  let a1 = Discovery.discover_async ~key:"flights" c1 [ gated_source () ] in
  (* make sure the first fetch is really parked inside the gate before
     the supersede, so its completion races the cancellation *)
  wait ~what:"first fetch in flight" (fun () -> !entered >= 1);
  let c2 = Catalog.create Abi.x86_64 in
  let a2 = Discovery.discover_async ~key:"flights" c2 [ gated_source () ] in
  (* the superseded discovery fails fast — before its fetch returns *)
  (match Discovery.await a1 with
  | _ -> Alcotest.fail "superseded discovery returned an outcome"
  | exception Discovery.Cancelled -> ());
  check int "supersede counted" 1 (delta "superseded");
  (* release both fetches: the live one registers and wins; the
     cancelled worker must drop its outcome on the floor *)
  Mutex.lock gate;
  released := true;
  Condition.broadcast cv;
  Mutex.unlock gate;
  let outcome = Discovery.await a2 in
  check string "live discovery won from the registry source" "registry"
    outcome.Discovery.origin;
  check bool "live catalog registered the format" true
    (Catalog.mem c2 "ASDOffEvent");
  (* both workers have returned from their fetches; give the cancelled
     one a beat to take its (non-)registration path *)
  wait ~what:"both fetches returned" (fun () -> !exited >= 2);
  Thread.delay 0.1;
  check bool "superseded catalog untouched" false (Catalog.mem c1 "ASDOffEvent");
  check int "exactly one win counted (no double-count)" 1
    (delta "source_registry");
  check int "cancellation counted" 1 (delta "cancelled");
  (* cancelling a completed discovery is a no-op *)
  Discovery.cancel a2;
  check bool "completed outcome survives a late cancel" true
    (Discovery.await a2 == outcome
     || (Discovery.await a2).Discovery.source = outcome.Discovery.source)

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
            test_recovery_across_restart ] )
    ; ( "server"
      , [ Alcotest.test_case "binary + HTTP JSON round-trip" `Quick
            test_server_roundtrip ] )
    ; ( "resolver"
      , [ Alcotest.test_case "caching resolver" `Quick test_resolver_caching ]
      )
    ; ( "async"
      , [ Alcotest.test_case "async discovery: zero loss" `Quick
            test_async_discovery_zero_loss
        ; Alcotest.test_case "keyed supersede cancels in-flight discovery"
            `Quick test_async_discovery_supersede_cancels ] ) ]
