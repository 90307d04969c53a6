(** The relay control protocol (PROTOCOLS.md §11–18), described once.

    Every frame on a relay connection is a kind byte plus a body. The
    uppercase kinds are the {!Omf_transport.Endpoint} stream frames the
    relay forwards untouched; the lowercase kinds are the control
    commands and replies defined here, with text bodies. This module is
    the only code that builds or reads that text: the relay decodes
    each control frame into a {!request} and answers with a {!reply},
    and [Relay.Client], its sessions and the mirror encode requests and
    decode replies with the same functions. Every decoder is total: it
    returns [Error _] on input it cannot read and never raises.

{v
kind request    body                                      OK reply body
h    HELLO      credential lines, k=v per line            banner
a    ADVERTISE  stream \n [metadata lines] schema         (empty)
p    PUBLISH    stream [\n acks=1]                        (empty) | durable=D
                       [\n mirror=1 \n origin=ID \n epoch=N]        [\n tail=T]
                       [\n trace=CTX]
s    SUBSCRIBE  stream [\n from=N] [\n meta=1]            [offset=S \n]
                                                          [metadata lines] schema
t    STATS      (empty)                                   "name value" lines
l    LIST       (empty)                                   stream names, one a line
q    DESCRIBE   stream                                    metadata lines, schema
m    PROMOTE    stream                                    epoch=N

kind reply      body
o    OK         as above, per command
e    ERR        message
b    BUSY       retry_ms=N
k    ACK        decimal durable offset, unsolicited, acks=1 publishers only
v}

    A metadata line is [key=value\n] with a bare-identifier key
    ([[A-Za-z0-9_-]+]) and no ['<'] anywhere; the schema starts at the
    first line that is not one. *)

type kvs = (string * string) list
(** [key=value] lines: credentials, command options, stream metadata. *)

(** {1 Requests} *)

type request =
  | Hello of kvs
      (** Credentials: the broker's scoping input, plus the ones the
          relay reads itself — [auth=hmac] and [key-id] (§12), [comp=lz]
          (§18), [omf-reconnect]. *)
  | Advertise of { stream : string; meta : kvs; schema : string }
      (** [meta]: the registry binding (§14) and, from a mirror, the
          [origin]/[epoch] tag (§15). *)
  | Publish of {
      stream : string;
      acks : bool;  (** [acks=1]: durability acks (§13) *)
      mirror : (string * int) option;
          (** [mirror=1] replication link with its (origin, epoch)
              tag (§15) *)
      trace : Omf_trace.Trace.ctx option;  (** [trace=] context (§17) *)
    }
  | Subscribe of { stream : string; from : int option; meta : bool }
      (** [from=N]: stored replay from offset [N], [-1] for the live
          tail (§13); [meta=1]: metadata lines before the schema
          (§14). *)
  | Stats
  | List
  | Describe of string
  | Promote of string

val encode_request : request -> Bytes.t

type error =
  | Malformed of string
      (** a known command whose body cannot be read: answered with
          [Err], the connection stays open *)
  | Unknown of string  (** not a control command: a protocol violation *)

val decode_request : Bytes.t -> (request, error) result

val target : request -> (string * string) option
(** [(command, stream)] for a command that names a stream — the
    lowercase command name prefixes its error replies; [None] for
    HELLO, STATS and LIST. *)

(** {1 Replies} *)

type reply =
  | Ok of string  (** body per command; see the typed bodies below *)
  | Err of string
  | Busy of int
      (** retryable overload refusal (§16): retry the same command on
          the same connection after about this many milliseconds *)
  | Ack of int  (** the stream's cumulative durable offset (§13) *)

val encode_reply : reply -> Bytes.t
val decode_reply : Bytes.t -> (reply, string) result

(** {2 Typed OK bodies} *)

type banner = { mac : bool; comp : bool }
(** HELLO: the frame modes granted, [omf-relay 1 [mac] [comp=lz]]. *)

val encode_banner : banner -> string
val decode_banner : string -> banner

type watermark = { durable : int; tail : int option }
(** PUBLISH on a store-backed relay: the durable watermark, and for a
    mirror link the store tail it resumes from. [None] (an empty body)
    means the relay is memory-only. *)

val encode_published : watermark option -> string
val decode_published : string -> (watermark option, string) result

type schema_reply = { offset : int option; meta : kvs; schema : string }
(** SUBSCRIBE and DESCRIBE: the first offset delivered (a store-backed
    [from=] subscription only), metadata lines, the scoped schema. *)

val encode_schema_reply : schema_reply -> string

val decode_schema_reply :
  offset:bool -> meta:bool -> string -> (schema_reply, string) result
(** [offset] and [meta] say whether the request asked for the offset
    line ([from=]) and for metadata ([meta=1], or DESCRIBE): only then
    are they looked for. *)

val encode_epoch : int -> string
(** PROMOTE: the stream's epoch after the call. *)

val decode_epoch : string -> (int, string) result
val encode_list : string list -> string
val decode_list : string -> string list
val encode_stats : (string * int) list -> string
val decode_stats : string -> (string * int) list

(** {1 Refusals}

    The error texts a retry cannot change. {!is_refusal} recognises
    every one of them, so a mirror link parks instead of backing off. *)

val read_only : string -> string -> string -> string
(** [read_only cmd stream origin]: a write to a mirrored stream. *)

val stale_mirror : string -> string -> int -> string
(** [stale_mirror stream origin epoch]: a mirror link whose tag is not
    the stream's [origin@epoch]. *)

val unknown_stream : string -> string -> string
val access_denied : string -> string -> string
val is_refusal : string -> bool

(** {1 Stream metadata}

    Every advertised stream carries a replication tag (§15): [origin=]
    is the relay id that owns writes, [epoch=] an ownership generation
    bumped by PROMOTE. A stream whose origin is not the hosting relay
    is read-only there: only a mirror link with the matching tag may
    append. *)

val tag : kvs -> relay_id:string -> string * int
(** The (origin, epoch) tag; untagged metadata is [relay_id]'s at
    epoch 0. *)

val with_origin : kvs -> origin:string -> epoch:int -> kvs
(** Replace the tag. *)

val tagged : kvs -> origin:string -> kvs
(** [kvs] as is when it carries an origin, else tagged [origin] at
    epoch 0 (streams advertised before origin tracking). *)

val gate_advert :
  relay_id:string -> current:kvs option -> string -> kvs -> (kvs, string) result
(** [gate_advert ~relay_id ~current stream meta] arbitrates an
    ADVERTISE against the metadata [current]ly held: [Ok kvs] is the
    metadata to record, [Error msg] a refusal. The relay's own stream
    coming back around a mirror cycle, an untagged advertise of a
    mirrored (read-only) stream and a stale epoch after a promote are
    refused; a strictly higher epoch from elsewhere takes ownership
    (failback after the old origin returns). *)

val with_trace : kvs -> Omf_trace.Trace.ctx option -> kvs
(** Append a [trace=] line (§17; DESCRIBE on a tracing relay). *)

val split_trace : kvs -> Omf_trace.Trace.ctx option * kvs
(** The [trace=] context, and the metadata without it. *)
