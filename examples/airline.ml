(** The airline operational information system of Figures 1 and 3.

    - A metadata server (real HTTP on loopback) publishes stream schemas.
    - Capture points (FAA flight feed, NOAA weather feed) discover their
      own formats from it and publish events onto the event backbone, an
      in-process relay ({!Omf_relay.Relay}) on an ephemeral loopback
      port: the same broker [relayd] runs.
    - Consumers on different simulated architectures subscribe: a display
      point sees full flight events; a handheld gate device gets a
      credential-scoped slice; a weather indicator follows the weather
      stream.
    - Mid-run, the flight feed upgrades its format (adds a gate field)
      and re-advertises it while its publisher connection keeps sending:
      nobody recompiles, old subscribers keep decoding, refreshed ones see
      the new field.

    Run with: dune exec examples/airline.exe *)

open Omf_machine
open Omf_pbio.Pbio
module X2W = Omf_xml2wire.Xml2wire
module Catalog = Omf_xml2wire.Catalog
module Discovery = Omf_xml2wire.Discovery
module Relay = Omf_relay.Relay
module Session = Omf_relay.Relay_session
module Sender = Omf_transport.Endpoint.Sender
module Http = Omf_httpd.Http
module Prng = Omf_util.Prng

let flight_schema_v1 =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://ops.example-airline.com/schemas">
  <xsd:annotation><xsd:documentation>
    Aircraft situation display: wheels-off events from the FAA feed.
  </xsd:documentation></xsd:annotation>
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" />
    <xsd:element name="eta" type="xsd:unsigned-long" />
  </xsd:complexType>
</xsd:schema>|}

let flight_schema_v2 =
  (* v1 plus a departure gate — the run-time format upgrade *)
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://ops.example-airline.com/schemas">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" />
    <xsd:element name="eta" type="xsd:unsigned-long" />
    <xsd:element name="gate" type="xsd:string" />
  </xsd:complexType>
</xsd:schema>|}

let weather_schema =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://ops.example-airline.com/schemas">
  <xsd:complexType name="WeatherObs">
    <xsd:element name="station" type="xsd:string" />
    <xsd:element name="temp_c" type="xsd:double" />
    <xsd:element name="wind_kts" type="xsd:integer" />
    <xsd:element name="gusts" type="xsd:integer" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>|}

(* ------------------------------------------------------------------ *)
(* Synthetic capture-point data                                         *)
(* ------------------------------------------------------------------ *)

let airports = [| "KATL"; "KMCO"; "KJFK"; "KLAX"; "KORD"; "KDFW" |]
let airlines = [| "DAL"; "AAL"; "UAL"; "SWA" |]
let equipment = [| "B757-232"; "B737-800"; "A320-214"; "MD-88" |]

let flight_event rng ?gate () =
  let pick a = a.(Prng.int rng (Array.length a)) in
  let base =
    [ ("cntrID", Value.String "ZTL-ARTCC-0004")
    ; ("arln", Value.String (pick airlines))
    ; ("fltNum", Value.Int (Int64.of_int (100 + Prng.int rng 8900)))
    ; ("equip", Value.String (pick equipment))
    ; ("org", Value.String (pick airports))
    ; ("dest", Value.String (pick airports))
    ; ("off", Value.Uint (Int64.of_int (1_579_871_234 + Prng.int rng 3600)))
    ; ("eta", Value.Uint (Int64.of_int (1_579_874_834 + Prng.int rng 7200))) ]
  in
  Value.Record
    (match gate with
    | None -> base
    | Some g -> base @ [ ("gate", Value.String g) ])

let weather_event rng =
  Value.Record
    [ ("station", Value.String airports.(Prng.int rng (Array.length airports)))
    ; ("temp_c", Value.Float (10.0 +. (Prng.float rng *. 25.0)))
    ; ("wind_kts", Value.Int (Int64.of_int (Prng.int rng 40)))
    ; ("gusts",
       Value.Array
         (Array.init (Prng.int rng 3) (fun _ ->
              Value.Int (Int64.of_int (20 + Prng.int rng 30))))) ]

(* ------------------------------------------------------------------ *)

(* A capture point: discovers its own stream's metadata from the
   metaserver (with a compiled-in fallback), advertises the stream on the
   relay, and returns its catalog and a sender on a publisher
   connection. *)
let make_capture_point ~relay_port ~metaserver_port ~stream ~path ~fallback
    abi =
  let catalog = Catalog.create abi in
  let outcome =
    Discovery.discover catalog
      [ Discovery.from_fetcher
          ~label:(Printf.sprintf "http://127.0.0.1:%d%s" metaserver_port path)
          (Http.fetcher ~port:metaserver_port ~path ())
      ; Discovery.compiled ~label:"compiled-in" fallback ]
  in
  Printf.printf "[%s] metadata from %s\n" stream outcome.Discovery.source;
  let schema_text =
    match outcome.Discovery.document with
    | Some text -> text
    | None ->
      (* compiled-in fallback has no document: publish one from the catalog *)
      X2W.publish_schema catalog
        (List.map
           (fun e -> e.Catalog.decl.Ftype.name)
           (Catalog.entries catalog))
  in
  let client = Relay.Client.connect ~port:relay_port () in
  Relay.Client.advertise client ~stream ~schema:schema_text;
  let link = Relay.Client.publish client ~stream in
  (catalog, Sender.create link (Memory.create abi))

let publish (catalog, sender) name v =
  Sender.send_value sender (Option.get (Catalog.find_format catalog name)) v

(* the next [n] events of a subscription, in order; every [n] below is
   what was published since the consumer's last read *)
let show role consumer n =
  for _ = 1 to n do
    match Session.recv_subscriber consumer with
    | Some (fmt, v) ->
      Printf.printf "  [%s] %s %s\n" role fmt.Format.name (Value.to_string v)
    | None -> failwith (role ^ ": subscription closed")
  done

let () =
  let rng = Prng.create ~seed:42L () in
  (* metadata server: one HTTP endpoint for all stream schemas *)
  let docs = Hashtbl.create 4 in
  Hashtbl.replace docs "/flights.xsd" flight_schema_v1;
  Hashtbl.replace docs "/weather.xsd" weather_schema;
  let server =
    Http.serve ~port:0 (fun ~path ~headers:_ ->
        match Hashtbl.find_opt docs path with
        | Some body -> Http.ok body
        | None -> Http.not_found path)
  in
  Printf.printf "metaserver listening on 127.0.0.1:%d\n" (Http.port server);
  let relay = Relay.start (Relay.listen ()) in
  let relay_port = Relay.port relay in
  Printf.printf "relay listening on 127.0.0.1:%d\n\n" relay_port;

  (* capture points *)
  let flights =
    make_capture_point ~relay_port ~metaserver_port:(Http.port server)
      ~stream:"flights" ~path:"/flights.xsd" ~fallback:[] Abi.x86_64
  in
  let weather =
    make_capture_point ~relay_port ~metaserver_port:(Http.port server)
      ~stream:"weather" ~path:"/weather.xsd" ~fallback:[] Abi.power_64
  in

  (* scope policy: handhelds only see routing-relevant fields *)
  Relay.set_scope relay ~stream:"flights" (fun creds ->
      match List.assoc_opt "role" creds with
      | Some "handheld" -> Some [ "fltNum"; "org"; "dest"; "eta"; "gate" ]
      | _ -> None);

  (* consumers on three different architectures *)
  let display =
    Session.subscribe
      (Session.config ~port:relay_port ~creds:[ ("role", "display") ] ())
      ~stream:"flights" Abi.sparc_32
  in
  let handheld =
    Session.subscribe
      (Session.config ~port:relay_port ~creds:[ ("role", "handheld") ] ())
      ~stream:"flights" Abi.arm_32
  in
  let weather_indicator =
    Session.subscribe (Session.config ~port:relay_port ()) ~stream:"weather"
      Abi.x86_32
  in

  Printf.printf "\n--- tick 1: normal operation ---\n";
  publish flights "ASDOffEvent" (flight_event rng ());
  publish flights "ASDOffEvent" (flight_event rng ());
  publish weather "WeatherObs" (weather_event rng);
  show "display " display 2;
  show "handheld" handheld 2;
  show "weather " weather_indicator 1;

  Printf.printf "\n--- tick 2: flight feed upgrades its format at run time ---\n";
  Hashtbl.replace docs "/flights.xsd" flight_schema_v2;
  (* the capture point re-registers and re-advertises on a control
     connection; its publisher connection keeps sending, announcing the
     new format's descriptor before its first event. Nobody recompiles. *)
  let flight_catalog, _ = flights in
  ignore (X2W.register_schema flight_catalog flight_schema_v2);
  let control = Relay.Client.connect ~port:relay_port () in
  Relay.Client.advertise control ~stream:"flights" ~schema:flight_schema_v2;
  publish flights "ASDOffEvent" (flight_event rng ~gate:"T7" ());
  Printf.printf "old display subscriber (format v1, gate field dropped):\n";
  show "display " display 1;
  Printf.printf "freshly attached display (discovers v2, sees the gate):\n";
  let fresh =
    Session.subscribe
      (Session.config ~port:relay_port ~creds:[ ("role", "display") ] ())
      ~stream:"flights" Abi.sparc_32
  in
  publish flights "ASDOffEvent" (flight_event rng ~gate:"B12" ());
  show "display2" fresh 1;
  show "display " display 1;

  (* a STATS reply reads the answering shard's streams live ([Relay.stats]
     holds them as of the last once-a-second gauge tick) *)
  let stats = Relay.Client.stats control in
  let gauge key =
    Option.value ~default:0 (List.assoc_opt ("stream.flights." ^ key) stats)
  in
  Printf.printf "\ndone: %d flight frames published, %d subscribers served\n"
    (gauge "published") (gauge "subscribers");
  Relay.Client.close control;
  Relay.stop relay;
  Http.shutdown server
