(** The record shapes bench/e2e sends, as compiled-in declarations with
    fixed seeded values, plus a string + dynamic-array shape; and the
    per-call allocation of the PBIO entry points on them.

    Shared by the tier-1 allocation budgets and plan-equivalence
    properties (test_pbio, test_convert_plans) and by
    bench/alloc.exe, which prints the per-layer table EXPERIMENTS.md
    quotes. *)

open Omf_machine
open Omf_pbio
module Fx = Omf_fixtures.Paper_structs

type t = {
  name : string;
  decls : Ftype.t list;  (** registration order; the last is the record *)
  send_abi : Abi.t;
  recv_abi : Abi.t;  (** the ABI bench/e2e delivers this shape to *)
  value : Value.t;
}

let decl_samples =
  Ftype.declare "samples" [ ("seq", "integer"); ("data", "double[2048]") ]

let decl_strvar =
  Ftype.declare "strvar"
    [ ("name", "string")
    ; ("n", "integer")
    ; ("vals", "double[n]")
    ; ("tags", "string[k]")
    ; ("k", "short")
    ; ("code", "char[6]")
    ; ("flag", "char") ]

let with_equip equip = Value.set_field Fx.value_a "equip" (Value.String equip)

(* a 1 KiB run of words: the secure-compressed workload's text pad *)
let pad =
  let words = [| "flight"; "delayed"; "gate"; "runway"; "holding"; "tower" |] in
  let b = Buffer.create 1100 in
  let i = ref 0 in
  while Buffer.length b < 1024 do
    Buffer.add_string b words.(!i mod Array.length words);
    Buffer.add_char b ' ';
    incr i
  done;
  Buffer.sub b 0 1024

let samples_value =
  let rng = Random.State.make [| 16 |] in
  Value.Record
    [ ("seq", Value.Int 7L)
    ; ( "data"
      , Value.Array
          (Array.init 2048 (fun _ ->
               Value.Float (Random.State.float rng 2e6 -. 1e6))) ) ]

let strvar_value =
  Value.Record
    [ ("name", Value.String "probe-7")
    ; ("vals", Value.Array (Array.init 5 (fun i -> Value.Float (float_of_int i *. 1.5))))
    ; ("tags", Value.Array [| Value.String "a"; Value.String ""; Value.String "ccc" |])
    ; ("code", Value.String "XY-1")
    ; ("flag", Value.Char 'z') ]

let bench =
  [ { name = "paper-a"; decls = [ Fx.decl_a ]; send_abi = Abi.x86_64
    ; recv_abi = Abi.x86_64; value = Fx.value_a }
  ; { name = "science-16k"; decls = [ decl_samples ]; send_abi = Abi.x86_64
    ; recv_abi = Abi.sparc_64; value = samples_value }
  ; { name = "durable-cd"; decls = [ Fx.decl_c; Fx.decl_d ]
    ; send_abi = Abi.x86_64; recv_abi = Abi.sparc_32; value = Fx.value_d }
  ; { name = "secure-a1k"; decls = [ Fx.decl_a ]; send_abi = Abi.x86_64
    ; recv_abi = Abi.x86_64; value = with_equip pad } ]

let strvar =
  { name = "strvar"; decls = [ decl_strvar ]; send_abi = Abi.x86_64
  ; recv_abi = Abi.sparc_32; value = strvar_value }

(** [registry abi shape] registers the shape's declarations. *)
let registry abi (s : t) : Format.Registry.t =
  let reg = Format.Registry.create abi in
  List.iter (fun d -> ignore (Format.Registry.register reg d)) s.decls;
  reg

(** [register abi shape] is the shape's record format under [abi]. *)
let register abi (s : t) : Format.t =
  let record = List.nth s.decls (List.length s.decls - 1) in
  Option.get (Format.Registry.find (registry abi s) record.Ftype.name)

(** The event frame bench/e2e sends of [shape]: ['M'], then the
    message, a copy of its own. *)
let event_frame (s : t) =
  let fmt = register s.send_abi s in
  let mem = Memory.create s.send_abi in
  Bytes.copy (Pbio.message ~kind:'M' mem fmt (Native.store mem fmt s.value))

(* ------------------------------------------------------------------ *)
(* Per-layer allocation                                                 *)
(* ------------------------------------------------------------------ *)

type layers = {
  bind : float;  (** [Native.store] *)
  encode : float;  (** [Pbio.message] *)
  receive : float;  (** [Pbio.Receiver.receive] *)
  load : float;  (** [Native.load] *)
  message_length : int;
  elements : int;  (** values in the record, array elements included *)
  value_bytes : int;  (** reachable from the value [Native.load] returns *)
}

let rec elements = function
  | Value.Record fs -> List.fold_left (fun n (_, v) -> n + elements v) 0 fs
  | Value.Struct { values; _ } -> Array.fold_left (fun n v -> n + elements v) 0 values
  | Value.Array a -> Array.fold_left (fun n v -> n + elements v) 0 a
  | Value.Floats a -> Float.Array.length a
  | _ -> 1

(** Per-call allocation of the four per-event entry points on [shape],
    sent from its [send_abi] to [recv_abi], used the way bench/e2e uses
    them: the sender and receiver reset their memories per event. *)
let measure ?iters (s : t) : layers =
  let recv_abi = s.recv_abi in
  let sfmt = register s.send_abi s in
  let smem = Memory.create s.send_abi in
  let bind =
    Alloc.bytes_per_call ?iters (fun () ->
        Memory.reset smem;
        Native.store smem sfmt s.value)
  in
  Memory.reset smem;
  let addr = Native.store smem sfmt s.value in
  let encode = Alloc.bytes_per_call ?iters (fun () -> Pbio.message smem sfmt addr) in
  let msg = Pbio.message smem sfmt addr in
  let rmem = Memory.create recv_abi in
  let rx = Pbio.Receiver.create (registry recv_abi s) rmem in
  ignore (Pbio.Receiver.learn rx (Format_codec.encode sfmt));
  let receive =
    Alloc.bytes_per_call ?iters (fun () ->
        Memory.reset rmem;
        Pbio.Receiver.receive rx msg)
  in
  Memory.reset rmem;
  let rfmt, raddr = Pbio.Receiver.receive rx msg in
  let load = Alloc.bytes_per_call ?iters (fun () -> Native.load rmem rfmt raddr) in
  { bind; encode; receive; load; message_length = Bytes.length msg
  ; elements = elements s.value
  ; value_bytes =
      Obj.reachable_words (Obj.repr (Native.load rmem rfmt raddr))
      * (Sys.word_size / 8) }
