(** Integration tests: whole-system scenarios that cross every layer —
    HTTP metadata discovery, the catalog, the relay, NDR transfer with
    mixed ABIs, and failure injection. These are the checked versions of
    the example programs. *)

open Omf_machine
open Omf_pbio.Pbio
module X2W = Omf_xml2wire.Xml2wire
module Catalog = Omf_xml2wire.Catalog
module Discovery = Omf_xml2wire.Discovery
module Relay = Omf_relay.Relay
module Session = Omf_relay.Relay_session
module Http = Omf_httpd.Http
module Endpoint = Omf_transport.Endpoint
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let str = Alcotest.string

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

(* ------------------------------------------------------------------ *)
(* Scenario 1: the airline system, end to end                           *)
(* ------------------------------------------------------------------ *)

(* an in-process relay for one scenario, stopped however it ends *)
let with_relay f =
  let relay = Relay.start (Relay.listen ()) in
  Fun.protect ~finally:(fun () -> Relay.stop relay) (fun () -> f relay)

(* advertise [schema] on [stream] and enter publisher mode: the client
   and an endpoint sender on its link *)
let relay_publisher ~port ~stream ~schema abi =
  let client = Relay.Client.connect ~port () in
  Relay.Client.advertise client ~stream ~schema;
  let link = Relay.Client.publish client ~stream in
  (client, Endpoint.Sender.create link (Memory.create abi))

(* a subscriber session with no reconnect budget: the end of its link
   ends it *)
let subscribe ?creds ~port ~stream abi =
  Session.subscribe
    (Session.config ?creds ~max_attempts:0 ~port ())
    ~stream abi

(* the next [n] events of a subscription, in order *)
let recv_n consumer n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Session.recv_subscriber consumer with
      | Some ev -> go (ev :: acc) (k - 1)
      | None -> Alcotest.fail "relay closed the stream"
  in
  go [] n

let test_airline_system () =
  (* metaserver *)
  let server = Http.serve_table ~port:0 [ ("/flights.xsd", Fx.schema_a) ] in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      with_relay @@ fun relay ->
      let port = Relay.port relay in
      (* capture point discovers its metadata over HTTP *)
      let catalog = Catalog.create Abi.x86_64 in
      let outcome =
        Discovery.discover catalog
          [ Discovery.from_fetcher ~label:"http"
              (Http.fetcher ~port:(Http.port server) ~path:"/flights.xsd" ())
          ; Discovery.compiled [ Fx.decl_a ] ]
      in
      check str "metadata came from HTTP" "http" outcome.Discovery.source;
      let pub, sender =
        relay_publisher ~port ~stream:"flights"
          ~schema:(Option.get outcome.Discovery.document) Abi.x86_64
      in
      Relay.set_scope relay ~stream:"flights" (fun creds ->
          if List.mem_assoc "restricted" creds then Some [ "fltNum"; "dest" ]
          else None);
      let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
      (* consumers on every ABI, one of them scoped *)
      let consumers =
        List.map
          (fun abi -> subscribe ~port ~stream:"flights" abi)
          Abi.all
      in
      let scoped =
        subscribe ~port ~stream:"flights"
          ~creds:[ ("restricted", "1") ] Abi.arm_32
      in
      for _ = 1 to 3 do
        Endpoint.Sender.send_value sender fmt Fx.value_a
      done;
      List.iter
        (fun c ->
          List.iter
            (fun (_, v) ->
              check value_testable "payload correct" (Value.String "KMCO")
                (Value.field_exn v "dest"))
            (recv_n c 3))
        consumers;
      List.iter
        (fun (_, v) ->
          check bool "scoped consumer sees only the slice" true
            (Value.field v "cntrID" = None && Value.field v "fltNum" <> None))
        (recv_n scoped 3);
      List.iter Session.close_subscriber (scoped :: consumers);
      Relay.Client.close pub)

(* ------------------------------------------------------------------ *)
(* Scenario 2: live upgrade while the system runs                       *)
(* ------------------------------------------------------------------ *)

let test_upgrade_mid_stream () =
  let schema_v2 =
    Omf_testkit.Strings.replace
      ~sub:{|<xsd:element name="eta" type="xsd:unsigned-long" />|}
      ~by:{|<xsd:element name="eta" type="xsd:unsigned-long" />
    <xsd:element name="gate" type="xsd:string" />|}
      Fx.schema_a
  in
  let docs = ref Fx.schema_a in
  let server = Http.serve ~port:0 (fun ~path:_ ~headers:_ -> Http.ok !docs) in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      with_relay @@ fun relay ->
      let port = Relay.port relay in
      let catalog = Catalog.create Abi.x86_64 in
      let watch =
        Discovery.watch catalog
          [ Discovery.from_fetcher ~label:"http"
              (Http.fetcher ~port:(Http.port server) ~path:"/f.xsd" ()) ]
      in
      let pub, sender =
        relay_publisher ~port ~stream:"flights" ~schema:Fx.schema_a
          Abi.x86_64
      in
      let old_consumer =
        subscribe ~port ~stream:"flights" Abi.sparc_32
      in
      let fmt_v1 = Option.get (Catalog.find_format catalog "ASDOffEvent") in
      Endpoint.Sender.send_value sender fmt_v1 Fx.value_a;
      check int "v1 flows" 1 (List.length (recv_n old_consumer 1));
      (* metadata changes at the server; the publisher refreshes and
         re-advertises on a control connection, its publisher
         connection staying open *)
      docs := schema_v2;
      (match Discovery.refresh watch with
      | Some _ -> ()
      | None -> Alcotest.fail "refresh missed the upgrade");
      let control = Relay.Client.connect ~port () in
      Relay.Client.advertise control ~stream:"flights" ~schema:schema_v2;
      let fmt_v2 = Option.get (Catalog.find_format catalog "ASDOffEvent") in
      check bool "upgraded format differs" false
        (String.equal (Format.layout_signature fmt_v1) (Format.layout_signature fmt_v2));
      let v2_value =
        Value.set_field Fx.value_a "gate" (Value.String "T7")
      in
      Endpoint.Sender.send_value sender fmt_v2 v2_value;
      (* the running v1 consumer keeps decoding, dropping the new field *)
      (match recv_n old_consumer 1 with
      | [ (_, v) ] ->
        check bool "old consumer: no gate" true (Value.field v "gate" = None);
        check value_testable "old consumer: payload intact"
          (Value.String "KMCO") (Value.field_exn v "dest")
      | other -> Alcotest.failf "expected 1 event, got %d" (List.length other));
      (* a new consumer discovers v2 and sees everything *)
      let new_consumer =
        subscribe ~port ~stream:"flights" Abi.power_64
      in
      Endpoint.Sender.send_value sender fmt_v2 v2_value;
      (match recv_n new_consumer 1 with
      | [ (_, v) ] ->
        check value_testable "new consumer sees the gate" (Value.String "T7")
          (Value.field_exn v "gate")
      | _ -> Alcotest.fail "new consumer got nothing");
      List.iter Session.close_subscriber [ old_consumer; new_consumer ];
      Relay.Client.close control;
      Relay.Client.close pub)

(* ------------------------------------------------------------------ *)
(* Scenario 3: all three wire formats agree, full stack, random data    *)
(* ------------------------------------------------------------------ *)

let prop_stack_wire_format_agreement =
  QCheck.Test.make
    ~name:"NDR / XDR / XML text agree end-to-end (random formats)" ~count:100
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let rreg = Registry.create receiver_abi in
      let native = Registry.register rreg sfmt.Format.decl in
      (* NDR *)
      let ndr =
        let receiver = Receiver.create rreg (Memory.create receiver_abi) in
        ignore (Receiver.learn receiver (Format_codec.encode sfmt));
        snd (Receiver.receive_value receiver (message smem sfmt addr))
      in
      (* XDR *)
      let xdr =
        let rmem = Memory.create receiver_abi in
        Native.load rmem native
          (Omf_xdr.Xdr.decode native rmem (Omf_xdr.Xdr.encode smem sfmt addr))
      in
      (* XML text *)
      let xml =
        let rmem = Memory.create receiver_abi in
        Native.load rmem native
          (Omf_xmlwire.Xmlwire.decode native rmem
             (Omf_xmlwire.Xmlwire.encode smem sfmt addr))
      in
      Value.equal ndr xdr && Value.equal ndr xml)

(* ------------------------------------------------------------------ *)
(* Scenario 4: graceful degradation under infrastructure failure        *)
(* ------------------------------------------------------------------ *)

let test_total_infrastructure_failure () =
  (* the metaserver dies (and stays dead: we inject a failing fetcher
     rather than racing on a recycled port); the system keeps working on
     compiled-in metadata and per-connection negotiation *)
  let catalog = Catalog.create Abi.x86_64 in
  let outcome =
    Discovery.discover catalog
      [ Discovery.from_fetcher ~label:"dead-http" (fun () ->
            raise (Http.Http_error "connect: ECONNREFUSED"))
      ; Discovery.compiled ~label:"compiled-in" [ Fx.decl_a ] ]
  in
  check str "compiled fallback" "compiled-in" outcome.Discovery.source;
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let rreg = Registry.create Abi.sparc_32 in
  ignore (Registry.register rreg Fx.decl_a);
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  ignore (Receiver.learn receiver (Format_codec.encode fmt));
  let _, v =
    Receiver.receive_value receiver
      (message_of_value Abi.x86_64 fmt Fx.value_a)
  in
  check value_testable "degraded system still moves data"
    (Value.String "DELTA") (Value.field_exn v "arln")

(* ------------------------------------------------------------------ *)
(* Scenario 5: duplex TCP exchange between two full endpoints           *)
(* ------------------------------------------------------------------ *)

let test_duplex_tcp_exchange () =
  let sock, port = Omf_reactor.Reactor.listener ~port:0 () in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  (* server side: one accepted connection with its own catalog; it
     receives, then replies on the same link *)
  let server_got = ref None in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept ~cloexec:true sock in
        let link = Omf_transport.Tcp.link_of_fd fd in
        let catalog = Catalog.create Abi.power_64 in
        ignore (X2W.register_schema catalog Fx.schema_a);
        let mem = Memory.create Abi.power_64 in
        let receiver =
          Endpoint.Receiver.create link (Catalog.registry catalog) mem
        in
        (match Endpoint.Receiver.recv_value receiver with
        | Some (_, v) ->
          server_got := Some v;
          (* reply with an ack on the same link, opposite direction *)
          let sender = Endpoint.Sender.create link mem in
          let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
          Endpoint.Sender.send_value sender fmt
            (Value.set_field v "dest" (Value.String "ACKD"))
        | None -> ());
        Omf_transport.Link.close link)
      ()
  in
  let link = Omf_transport.Tcp.connect ~port () in
  let catalog = Catalog.create Abi.x86_32 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let mem = Memory.create Abi.x86_32 in
  let sender = Endpoint.Sender.create link mem in
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  Endpoint.Sender.send_value sender fmt Fx.value_a;
  let receiver = Endpoint.Receiver.create link (Catalog.registry catalog) mem in
  let reply = Endpoint.Receiver.recv_value receiver in
  Thread.join server;
  Omf_transport.Link.close link;
  (match !server_got with
  | Some v ->
    check value_testable "server decoded client's event" (Value.String "KATL")
      (Value.field_exn v "org")
  | None -> Alcotest.fail "server got nothing");
  match reply with
  | Some (_, v) ->
    check value_testable "client decoded the ack" (Value.String "ACKD")
      (Value.field_exn v "dest")
  | None -> Alcotest.fail "no reply"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "integration"
    [ ( "scenarios",
        [ Alcotest.test_case "airline system end-to-end" `Quick
            test_airline_system
        ; Alcotest.test_case "live upgrade mid-stream" `Quick
            test_upgrade_mid_stream
        ; Alcotest.test_case "total infrastructure failure" `Quick
            test_total_infrastructure_failure
        ; Alcotest.test_case "duplex TCP exchange" `Quick
            test_duplex_tcp_exchange ]
        @ qsuite [ prop_stack_wire_format_agreement ] ) ]
