(** The benchmark's workloads: what each sends, between which ABIs,
    through which relayd configuration, and at which open-loop rate.
    Payload contents come from the run's seed; shapes, rates and ABIs
    are fixed here so every run of a workload does the same work. *)

open Omf_machine
open Omf_pbio
module Fx = Omf_fixtures.Paper_structs

type t = {
  name : string;
  schema : string;  (** advertised XML Schema text *)
  format : string;  (** the complexType every event uses *)
  send_abi : Abi.t;
  recv_abi : Abi.t;
  store : bool;  (** relayd runs with [--store]: acked publish + replay *)
  secure : bool;  (** HMAC auth and [comp=lz] on every client link *)
  open_rate : float;  (** open-loop arrivals, events/s *)
  variant : Random.State.t -> Value.t;  (** one seeded payload *)
  set_seq : Value.t -> int -> Value.t;
  get_seq : Value.t -> int;
}

let schema_samples =
  {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/pmw/schemas">
  <xsd:complexType name="samples">
    <xsd:element name="seq" type="xsd:integer" />
    <xsd:element name="data" type="xsd:double" minOccurs="2048" maxOccurs="2048" />
  </xsd:complexType>
</xsd:schema>|}

let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"

let text rng n =
  String.init n (fun _ ->
      alphabet.[Random.State.int rng (String.length alphabet)])

let u32 rng = Value.Uint (Int64.of_int (Random.State.bits rng))

(* a run of words from a small vocabulary: realistic, compressible text *)
let vocabulary =
  [| "flight"; "delayed"; "gate"; "arrival"; "departure"; "runway"; "ATL"
   ; "MCO"; "holding"; "pattern"; "cleared"; "approach"; "wind"; "knots"
   ; "visibility"; "ceiling"; "boarding"; "crew"; "fuel"; "taxi"; "tower"
   ; "center"; "sector"; "handoff" |]

let pad rng n =
  let b = Buffer.create (n + 16) in
  while Buffer.length b < n do
    Buffer.add_string b
      vocabulary.(Random.State.int rng (Array.length vocabulary));
    Buffer.add_char b ' '
  done;
  Buffer.sub b 0 n

(* structure A with fixed string widths: 72 bytes on the wire, as in the
   paper's Table 1, whatever the seed *)
let structure_a ?(equip = fun rng -> text rng 8) rng =
  Value.Record
    [ ("cntrID", Value.String (text rng 14))
    ; ("arln", Value.String (text rng 5))
    ; ("fltNum", Value.Int 0L)
    ; ("equip", Value.String (equip rng))
    ; ("org", Value.String (text rng 4))
    ; ("dest", Value.String (text rng 4))
    ; ("off", u32 rng)
    ; ("eta", u32 rng) ]

let structure_c rng =
  Value.Record
    [ ("cntrID", Value.String (text rng 14))
    ; ("arln", Value.String (text rng 5))
    ; ("fltNum", Value.Int (Int64.of_int (Random.State.bits rng land 0xffff)))
    ; ("equip", Value.String (text rng 8))
    ; ("org", Value.String (text rng 4))
    ; ("dest", Value.String (text rng 4))
    ; ("off", Value.Array (Array.init 5 (fun _ -> u32 rng)))
    ; ("eta", Value.Array (Array.init 3 (fun _ -> u32 rng))) ]

let structure_d rng =
  Value.Record
    [ ("one", structure_c rng)
    ; ("bart", Value.Float (Random.State.float rng 1000.0))
    ; ("two", structure_c rng)
    ; ("lisa", Value.Float (Random.State.float rng 1000.0))
    ; ("three", structure_c rng) ]

let samples rng =
  Value.Record
    [ ("seq", Value.Int 0L)
    ; ( "data"
      , Value.Array
          (Array.init 2048 (fun _ ->
               Value.Float (Random.State.float rng 2e6 -. 1e6))) ) ]

let seq_field field =
  ( (fun v seq -> Value.set_field v field (Value.Int (Int64.of_int seq)))
  , fun v -> Int64.to_int (Value.to_int64 (Value.field_exn v field)) )

let nested_seq_field outer field =
  let set, get = seq_field field in
  ( (fun v seq -> Value.set_field v outer (set (Value.field_exn v outer) seq))
  , fun v -> get (Value.field_exn v outer) )

let make ~name ~schema ~format ~send_abi ~recv_abi ?(store = false)
    ?(secure = false) ~open_rate ~variant (set_seq, get_seq) =
  { name; schema; format; send_abi; recv_abi; store; secure; open_rate
  ; variant; set_seq; get_seq }

let all =
  [ make ~name:"paper-a-live" ~schema:Fx.schema_a ~format:"ASDOffEvent"
      ~send_abi:Abi.x86_64 ~recv_abi:Abi.x86_64 ~open_rate:10_000.0
      ~variant:(fun rng -> structure_a rng)
      (seq_field "fltNum")
  ; make ~name:"science-16k" ~schema:schema_samples ~format:"samples"
      ~send_abi:Abi.x86_64 ~recv_abi:Abi.sparc_64 ~open_rate:500.0
      ~variant:samples (seq_field "seq")
  ; make ~name:"durable-replay" ~schema:Fx.schema_cd ~format:"threeASDOffs"
      ~send_abi:Abi.x86_64 ~recv_abi:Abi.sparc_32 ~store:true
      ~open_rate:5_000.0 ~variant:structure_d
      (nested_seq_field "one" "fltNum")
  ; make ~name:"secure-compressed" ~schema:Fx.schema_a ~format:"ASDOffEvent"
      ~send_abi:Abi.x86_64 ~recv_abi:Abi.x86_64 ~secure:true
      ~open_rate:3_000.0
      ~variant:(fun rng -> structure_a ~equip:(fun rng -> pad rng 1024) rng)
      (seq_field "fltNum") ]

let find name = List.find_opt (fun w -> w.name = name) all
