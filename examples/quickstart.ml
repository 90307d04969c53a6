(** Quickstart: the whole xml2wire pipeline in one file.

    1. Describe a message format openly, in XML Schema.
    2. Discover it at run time (here from an inline document; files and
       HTTP work the same way — see the other examples).
    3. Bind a program value to the discovered format.
    4. Ship it in NDR from a little-endian 64-bit sender to a big-endian
       32-bit receiver, with format negotiation handled by the endpoint.

    Run with: dune exec examples/quickstart.exe *)

open Omf_machine
open Omf_pbio.Pbio
module X2W = Omf_xml2wire.Xml2wire
module Catalog = Omf_xml2wire.Catalog
module Discovery = Omf_xml2wire.Discovery
module Endpoint = Omf_transport.Endpoint

(* 1. Open metadata: the structure of a flight-position event, readable
   by programs and by the non-programmers the paper cares about. *)
let schema =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://quickstart.example.org/schemas">
  <xsd:complexType name="FlightPosition">
    <xsd:element name="callsign" type="xsd:string" />
    <xsd:element name="latitude" type="xsd:double" />
    <xsd:element name="longitude" type="xsd:double" />
    <xsd:element name="altitude_ft" type="xsd:integer" />
    <xsd:element name="waypoints" type="xsd:string" minOccurs="0" maxOccurs="4" />
  </xsd:complexType>
</xsd:schema>|}

let () =
  (* The sender: an x86-64 process. Discovery parses the schema and
     registers the format for *this* machine's ABI — sizes and offsets
     are computed locally, exactly as the paper's run-time tool does. *)
  let sender_catalog = Catalog.create Abi.x86_64 in
  let outcome =
    Discovery.discover sender_catalog
      [ Discovery.from_string ~label:"inline-quickstart" schema ]
  in
  Printf.printf "discovered %d format(s) from %s\n"
    (List.length outcome.Discovery.formats)
    outcome.Discovery.source;
  Printf.printf "%s\n" (Fmt.str "%a" Catalog.pp sender_catalog);

  (* The receiver: a big-endian 32-bit process that discovered the same
     metadata. Different ABI, different layout — NDR bridges the gap. *)
  let receiver_catalog = Catalog.create Abi.sparc_32 in
  ignore (X2W.register_schema receiver_catalog schema);

  let sender_fmt = X2W.binding_format (X2W.bind sender_catalog "FlightPosition") in
  let receiver_fmt =
    X2W.binding_format (X2W.bind receiver_catalog "FlightPosition")
  in
  Printf.printf "sizeof(FlightPosition) on %s = %d bytes, on %s = %d bytes\n\n"
    Abi.x86_64.Abi.name (Format.struct_size sender_fmt) Abi.sparc_32.Abi.name
    (Format.struct_size receiver_fmt);

  (* 3. Bind data and 4. ship it over a link with format negotiation. *)
  let a_to_b, b_from_a, _, _ =
    Omf_transport.Netsim.pair Omf_transport.Netsim.loopback
  in
  let sender = Endpoint.Sender.create a_to_b (Memory.create Abi.x86_64) in
  let receiver =
    Endpoint.Receiver.create b_from_a
      (Catalog.registry receiver_catalog)
      (Memory.create Abi.sparc_32)
  in
  let event =
    Value.Record
      [ ("callsign", Value.String "DAL1771")
      ; ("latitude", Value.Float 33.6407)
      ; ("longitude", Value.Float (-84.4277))
      ; ("altitude_ft", Value.Int 31_000L)
      ; ("waypoints",
         Value.Array
           [| Value.String "ATL"; Value.String "MCN"; Value.String "JAX"
            ; Value.String "MCO" |]) ]
  in
  Endpoint.Sender.send_value sender sender_fmt event;

  (* Show what actually went on the wire: the sender's native bytes. *)
  let payload = Encode.payload_of_value Abi.x86_64 sender_fmt event in
  Printf.printf "NDR payload (%d bytes, sender-native layout):\n%s\n"
    (Bytes.length payload)
    (Omf_util.Hexdump.of_bytes payload);

  match Endpoint.Receiver.recv_value receiver with
  | Some (fmt, value) ->
    Printf.printf "receiver (%s) decoded a %s event:\n  %s\n"
      Abi.sparc_32.Abi.name fmt.Format.name (Value.to_string value);
    let same =
      Value.equal (Value.field_exn value "callsign") (Value.String "DAL1771")
    in
    Printf.printf "\ncallsign survived the trip: %b\n" same
  | None -> prerr_endline "receiver got nothing?"
