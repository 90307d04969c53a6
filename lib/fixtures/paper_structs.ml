(** The paper's Appendix A fixtures: airline ASD ("aircraft situation
    display") event structures A, B and C/D, as PBIO-style compiled-in
    declarations, sample values, and the XML Schema documents of Figures
    6, 9 and 12. Used by tests, benchmarks and examples.

    Structure sizes under a 32-bit big-endian ABI with 8-byte-aligned
    doubles (the paper's SPARC testbed — our [Abi.sparc_32]):
    A = 32 bytes, B = 52 bytes, C/D = 180 bytes, matching Table 1. *)

open Omf_pbio

(* ------------------------------------------------------------------ *)
(* Structure A (Figure 4/5): flat, no arrays, no nesting.              *)
(* ------------------------------------------------------------------ *)

let decl_a : Ftype.t =
  Ftype.declare "ASDOffEvent"
    [ ("cntrID", "string")
    ; ("arln", "string")
    ; ("fltNum", "integer")
    ; ("equip", "string")
    ; ("org", "string")
    ; ("dest", "string")
    ; ("off", "unsigned long")
    ; ("eta", "unsigned long") ]

(* String payload chosen so the five strings plus NUL terminators total
   exactly 40 bytes: encoded size 32 + 40 = 72 bytes, matching Table 1
   row 1 (and B: 52 + 40 + 3*4 = 104 bytes, matching row 2). *)
let value_a : Value.t =
  Value.Record
    [ ("cntrID", Value.String "ZTL-ARTCC-0004")  (* 15 bytes with NUL *)
    ; ("arln", Value.String "DELTA")  (* 6 *)
    ; ("fltNum", Value.Int 1771L)
    ; ("equip", Value.String "B757-232")  (* 9 *)
    ; ("org", Value.String "KATL")  (* 5 *)
    ; ("dest", Value.String "KMCO")  (* 5; total 15+6+9+5+5 = 40 *)
    ; ("off", Value.Uint 1579871234L)
    ; ("eta", Value.Uint 1579874834L) ]

(* ------------------------------------------------------------------ *)
(* Structure B (Figure 7/8): adds a static array off[5] and a          *)
(* dynamically-allocated array eta[eta_count].                         *)
(* ------------------------------------------------------------------ *)

let decl_b : Ftype.t =
  Ftype.declare "ASDOffEventB"
    [ ("cntrID", "string")
    ; ("arln", "string")
    ; ("fltNum", "integer")
    ; ("equip", "string")
    ; ("org", "string")
    ; ("dest", "string")
    ; ("off", "unsigned long[5]")
    ; ("eta", "unsigned long[eta_count]")
    ; ("eta_count", "integer") ]

let value_b : Value.t =
  Value.Record
    [ ("cntrID", Value.String "ZTL-ARTCC-0004")
    ; ("arln", Value.String "DELTA")
    ; ("fltNum", Value.Int 1771L)
    ; ("equip", Value.String "B757-232")
    ; ("org", Value.String "KATL")
    ; ("dest", Value.String "KMCO")
    ; ("off",
       Value.Array
         (Array.map (fun v -> Value.Uint v)
            [| 1579871234L; 1579871294L; 1579871354L; 1579871414L; 1579871474L |]))
    ; ("eta",
       Value.Array
         (Array.map (fun v -> Value.Uint v)
            [| 1579874834L; 1579874894L; 1579874954L |]))
      (* eta_count omitted: filled from the array length at binding time,
         exactly as xml2wire synthesises it from maxOccurs="*" *) ]

(* ------------------------------------------------------------------ *)
(* Structures C and D (Figure 10/11): B plus a composite that nests    *)
(* three of them with interleaved doubles.                             *)
(* ------------------------------------------------------------------ *)

let decl_c = { decl_b with Ftype.name = "ASDOffEventC" }

let decl_d : Ftype.t =
  Ftype.declare "threeASDOffs"
    [ ("one", "ASDOffEventC")
    ; ("bart", "double")
    ; ("two", "ASDOffEventC")
    ; ("lisa", "double")
    ; ("three", "ASDOffEventC") ]

let value_c = value_b

let value_d : Value.t =
  let nested k =
    Value.set_field value_b "fltNum"
      (Value.Int (Int64.add (Value.to_int64 (Value.field_exn value_b "fltNum")) k))
  in
  Value.Record
    [ ("one", nested 0L)
    ; ("bart", Value.Float 3.14159265358979)
    ; ("two", nested 100L)
    ; ("lisa", Value.Float 2.71828182845905)
    ; ("three", nested 200L) ]

(** Register A, B and C/D (in dependency order) in [registry]. *)
let register_all registry =
  let a = Format.Registry.register registry decl_a in
  let b = Format.Registry.register registry decl_b in
  let c = Format.Registry.register registry decl_c in
  let d = Format.Registry.register registry decl_d in
  (a, b, c, d)

(* ------------------------------------------------------------------ *)
(* XML Schema documents (Figures 6, 9, 12), 1999-draft style as in the *)
(* paper, with the C-width annotation attributes xml2wire honours.     *)
(* ------------------------------------------------------------------ *)

let schema_a =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/pmw/schemas">
  <xsd:annotation>
    <xsd:documentation>ASDOff</xsd:documentation>
  </xsd:annotation>
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

let schema_b =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/pmw/schemas">
  <xsd:annotation>
    <xsd:documentation>ASDOff</xsd:documentation>
  </xsd:annotation>
  <xsd:complexType name="ASDOffEventB">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>|}

let schema_cd =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/pmw/schemas">
  <xsd:annotation>
    <xsd:documentation>ASDOff</xsd:documentation>
  </xsd:annotation>
  <xsd:complexType name="ASDOffEventC">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
  <xsd:complexType name="threeASDOffs">
    <xsd:element name="one" type="ASDOffEventC" />
    <xsd:element name="bart" type="xsd:double" />
    <xsd:element name="two" type="ASDOffEventC" />
    <xsd:element name="lisa" type="xsd:double" />
    <xsd:element name="three" type="ASDOffEventC" />
  </xsd:complexType>
</xsd:schema>|}
