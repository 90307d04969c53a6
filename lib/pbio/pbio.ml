(** PBIO-style binary communication mechanism: public facade.

    The flow mirrors the paper's decomposition:
    - {b discovery} happens above this library (xml2wire, or compiled-in
      {!Ftype.declare} rows);
    - {b binding}: {!Format.Registry.register} + {!Native.store};
    - {b marshaling}: {!Encode.payload} / {!Receiver.receive} — NDR with
      receiver-side conversion compiled per format pair.

    A {!Receiver} corresponds to one incoming connection: it learns the
    peer's formats from the descriptors negotiated on that connection
    (the only way it learns one), caches conversion plans, and
    materialises incoming messages in its process {!Memory}. *)

open Omf_machine
module Value = Value
module Ftype = Ftype
module Format = Format
module Registry = Format.Registry
module Native = Native
module Encode = Encode
module Convert = Convert
module Wire = Wire
module Format_codec = Format_codec

exception Unknown_format of string

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)
(* ------------------------------------------------------------------ *)

(** [message ?kind mem fmt addr] marshals the struct at [addr]: the
    format's id then the NDR payload, after the byte [kind] if given. The
    sender performs no data conversion. The message is lent: it is
    [mem]'s output buffer, valid until the next [message] on [mem]. *)
let message ?kind (mem : Memory.t) (fmt : Format.t) (addr : int) : bytes =
  (* no allocation while the length repeats: the kind byte, the header
     and the payload emitted straight after it, in the memory's own
     buffer *)
  let off = match kind with Some _ -> 1 | None -> 0 in
  let msg =
    Memory.out_buffer mem (off + Wire.header_length + Encode.length mem fmt addr)
  in
  (match kind with Some k -> Bytes.set msg 0 k | None -> ());
  Wire.put_header fmt msg ~off;
  Encode.emit mem fmt addr msg ~off:(off + Wire.header_length);
  msg

(** [message_of_value abi fmt v] is the one-shot convenience used by
    examples and tests; its message is the caller's, since the memory
    that lent it is dropped. *)
let message_of_value (abi : Abi.t) (fmt : Format.t) (v : Value.t) : bytes =
  let mem = Memory.create abi in
  message mem fmt (Native.store mem fmt v)

(* ------------------------------------------------------------------ *)
(* Receiving                                                           *)
(* ------------------------------------------------------------------ *)

module Receiver = struct
  (** Operational counters, for monitoring and tests. *)
  type stats = {
    mutable messages : int;
    mutable bytes : int;  (** payload bytes received *)
    mutable formats_learned : int;
    mutable plans_compiled : int;
  }

  type t = {
    registry : Registry.t;
    mem : Memory.t;
    wire_formats : (int, string * Format.t) Hashtbl.t;
        (** peer format id -> (descriptor blob, format) *)
    plans : (int, Format.t * Convert.t) Hashtbl.t;
        (** peer format id -> (native format, compiled plan) *)
    stats : stats;
  }

  let create (registry : Registry.t) (mem : Memory.t) : t =
    if not (Abi.layout_equal (Registry.abi registry) (Memory.abi mem)) then
      invalid_arg "Receiver.create: registry and memory ABIs differ";
    { registry; mem; wire_formats = Hashtbl.create 8
    ; plans = Hashtbl.create 8
    ; stats =
        { messages = 0; bytes = 0; formats_learned = 0; plans_compiled = 0 } }

  let memory t = t.mem
  let stats t = t.stats

  (** [learn t blob] ingests a format descriptor under its own embedded
      id and returns the wire format. The blob already known under that
      id is a no-op: a relay replaying descriptors after a reconnect
      keeps the cached plans. *)
  let learn (t : t) (blob : string) : Format.t =
    let fmt = Format_codec.decode blob in
    match Hashtbl.find_opt t.wire_formats fmt.Format.id with
    | Some (known, fmt) when String.equal known blob -> fmt
    | _ ->
      Hashtbl.replace t.wire_formats fmt.Format.id (blob, fmt);
      t.stats.formats_learned <- t.stats.formats_learned + 1;
      (* a cached plan for this id is stale *)
      Hashtbl.remove t.plans fmt.Format.id;
      fmt

  let native_format_for (t : t) (wire : Format.t) : Format.t =
    match Registry.find_exn t.registry wire.Format.name with
    | f -> f
    | exception Not_found -> raise (Unknown_format wire.Format.name)

  (* Plans are cached per wire format id, for the native format they were
     compiled against: re-registering the native name compiles afresh. *)
  let plan_for (t : t) (wire : Format.t) (native : Format.t) : Convert.t =
    match Hashtbl.find t.plans wire.Format.id with
    | native', plan when native' == native -> plan
    | _ | (exception Not_found) ->
      let plan = Convert.compile ~wire ~native in
      Hashtbl.replace t.plans wire.Format.id (native, plan);
      t.stats.plans_compiled <- t.stats.plans_compiled + 1;
      plan

  (* A message under an id no descriptor announced breaks the protocol
     (the sender announces each format before its first message): a
     decode error at the header's id, not a format this receiver
     lacks. *)
  let resolve_format (t : t) (id : int) : Format.t =
    match Hashtbl.find t.wire_formats id with
    | _, f -> f
    | exception Not_found -> Omf_util.Decode.(fail "wire" 0 Inconsistent)

  (** [receive ?off t msg] demarshals the framed message at [msg.[off ..]]
      (default 0, to the end of [msg]) into [t]'s memory and returns
      [(native_format, struct_address)]. The struct is laid out for the
      receiver's ABI regardless of the sender's. The compiled plan
      converts the payload in place inside [msg]: beyond the native
      blocks it builds in [t]'s memory, it allocates only the pair it
      returns (the native format is looked up, and each block
      allocated, without an option box). *)
  let receive ?off (t : t) (msg : bytes) : Format.t * int =
    (* [?off] passed on as is: a rebuilt [Some off] would cost a block *)
    let id = Wire.format_id ?off msg in
    let pay = Option.value off ~default:0 + Wire.header_length in
    let len = Bytes.length msg - pay in
    let wire = resolve_format t id in
    let native = native_format_for t wire in
    let addr =
      Convert.run_sub (plan_for t wire native) msg ~off:pay ~len t.mem
    in
    t.stats.messages <- t.stats.messages + 1;
    t.stats.bytes <- t.stats.bytes + len;
    (native, addr)

  (** [receive_value t msg] additionally lifts the struct to a
      {!Value.t} — convenient for applications that do not want to touch
      simulated memory. *)
  let receive_value (t : t) (msg : bytes) : Format.t * Value.t =
    let fmt, addr = receive t msg in
    (fmt, Native.load t.mem fmt addr)
end
