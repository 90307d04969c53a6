(** Scientific data exchange: the "high performance codes moving
    scientific or engineering data" motivation from section 1.

    An atmospheric-chemistry producer streams sample blocks (a grid of
    doubles plus metadata) to an analysis consumer on a different
    architecture, and the example contrasts what the three wire formats
    do to that traffic: bytes moved and marshal cost per block.

    Run with: dune exec examples/scientific.exe *)

open Omf_machine
open Omf_pbio.Pbio
module X2W = Omf_xml2wire.Xml2wire
module Catalog = Omf_xml2wire.Catalog
module Xdr = Omf_xdr.Xdr
module Xmlwire = Omf_xmlwire.Xmlwire

let schema =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://atmos.example.edu/schemas">
  <xsd:annotation><xsd:documentation>
    Atmospheric chemistry: one timestep of ozone concentrations over a
    lat/lon patch, streamed from the simulation to analysis clients.
  </xsd:documentation></xsd:annotation>
  <xsd:complexType name="OzoneSlab">
    <xsd:element name="timestep" type="xsd:integer" />
    <xsd:element name="lat0" type="xsd:double" />
    <xsd:element name="lon0" type="xsd:double" />
    <xsd:element name="cell_deg" type="xsd:double" />
    <xsd:element name="cells" type="xsd:double" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>|}

let slab ~timestep n =
  Value.Record
    [ ("timestep", Value.Int (Int64.of_int timestep))
    ; ("lat0", Value.Float 33.0)
    ; ("lon0", Value.Float (-85.0))
    ; ("cell_deg", Value.Float 0.25)
    ; ("cells",
       Value.Array
         (Array.init n (fun i ->
              Value.Float (0.040 +. (0.002 *. sin (float_of_int (i + timestep))))))) ]

let () =
  let producer_abi = Abi.x86_64 and consumer_abi = Abi.sparc_64 in
  let producer = Catalog.create producer_abi in
  ignore (X2W.register_schema producer schema);
  let consumer = Catalog.create consumer_abi in
  ignore (X2W.register_schema consumer schema);
  let pfmt = Option.get (Catalog.find_format producer "OzoneSlab") in
  let cfmt = Option.get (Catalog.find_format consumer "OzoneSlab") in

  let cells = 4096 in
  let blocks = 100 in
  Printf.printf
    "streaming %d blocks of %d doubles from %s to %s\n\n" blocks cells
    producer_abi.Abi.name consumer_abi.Abi.name;

  (* bind one block; repeated sends reuse the native image, as a real
     simulation timestep loop would *)
  let pmem = Memory.create producer_abi in
  let addr = Native.store pmem pfmt (slab ~timestep:0 cells) in

  let wire = Format_codec.decode (Format_codec.encode pfmt) in
  let plan = Convert.compile ~wire ~native:cfmt in
  let cmem = Memory.create consumer_abi in

  let run_ndr () =
    let payload = Encode.payload pmem pfmt addr in
    Memory.reset cmem;
    ignore (Convert.run plan payload cmem);
    Bytes.length payload
  in
  let run_xdr () =
    let x = Xdr.encode pmem pfmt addr in
    Memory.reset cmem;
    ignore (Xdr.decode cfmt cmem x);
    Bytes.length x
  in
  let run_xml () =
    let t = Xmlwire.encode pmem pfmt addr in
    Memory.reset cmem;
    ignore (Xmlwire.decode cfmt cmem t);
    String.length t
  in
  let bench label f =
    let bytes = f () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to blocks do
      ignore (Sys.opaque_identity (f ()))
    done;
    let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int blocks in
    Printf.printf "  %-10s %8d bytes/block  %10.1f us/block  %8.1f MB moved\n"
      label bytes us
      (float_of_int (bytes * blocks) /. 1e6)
  in
  bench "NDR" run_ndr;
  bench "XDR" run_xdr;
  bench "XML text" run_xml;

  (* verify all three deliver the same data *)
  Memory.reset cmem;
  let via_ndr =
    Native.load cmem cfmt (Convert.run plan (Encode.payload pmem pfmt addr) cmem)
  in
  Memory.reset cmem;
  let via_xdr = Native.load cmem cfmt (Xdr.decode cfmt cmem (Xdr.encode pmem pfmt addr)) in
  Memory.reset cmem;
  let via_xml =
    Native.load cmem cfmt (Xmlwire.decode cfmt cmem (Xmlwire.encode pmem pfmt addr))
  in
  Printf.printf "\nall wire formats agree: %b\n"
    (Value.equal via_ndr via_xdr && Value.equal via_ndr via_xml);

  (* and the consumer can hand the block to analysis code *)
  match Value.field_exn via_ndr "cells" with
  | Value.Array cells ->
    let sum =
      Array.fold_left
        (fun acc v -> acc +. Value.to_float_exn v)
        0.0 cells
    in
    Printf.printf "mean ozone concentration this timestep: %.6f ppm\n"
      (sum /. float_of_int (Array.length cells))
  | _ -> assert false
