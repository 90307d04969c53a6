(** The event backbone (Figures 1 and 3): a publish/subscribe broker for
    named information streams, with metadata service, descriptor replay
    for late joiners, and credential-based format scoping (section 4.4:
    per-subscriber slices via dynamically generated metadata; NDR's
    match-by-name conversion drops hidden fields on receive). *)

open Omf_xml2wire

type credentials = (string * string) list
(** free-form subscriber attributes, e.g. [("role", "display")] *)

type scope_policy = credentials -> string list option
(** visible field names for these credentials; [None] = everything *)

exception Unknown_stream of string
exception Access_denied of string

type t

val create : unit -> t
val stream_names : t -> string list

(** {1 Publisher side} *)

val advertise : t -> stream:string -> schema:string -> unit
(** Announce (or re-announce, for upgrades) a stream and its metadata.
    The document is validated before being accepted. *)

val set_scope : t -> stream:string -> scope_policy -> unit

val publisher_link : t -> stream:string -> Omf_transport.Link.t
(** A virtual link that fans every frame out to all subscribers and
    remembers descriptor frames for replay. Use it under
    {!Omf_transport.Endpoint.Sender}. *)

(** {1 Subscriber side} *)

val scope_schema : stream:string -> string list option -> string -> string
(** [scope_schema ~stream visible schema]: the schema document reduced
    to the [visible] field names ([None] = unchanged). The one scoping
    rule, shared by {!metadata_for} and the TCP relay. Raises
    {!Access_denied} when scoping leaves a type empty. *)

val metadata_for : t -> stream:string -> credentials -> string
(** The stream's schema, scoped to what the credentials may see. Raises
    {!Access_denied} when scoping leaves a type empty. *)

val subscribe :
  t -> stream:string -> ?creds:credentials -> Omf_transport.Link.t ->
  unit -> unit
(** Attach the broker's sending end of a link pair; already-seen
    descriptor frames are replayed. Returns the unsubscribe function. *)

val subscriber_count : t -> stream:string -> int
val published_count : t -> stream:string -> int

(** {1 Convenience: a fully wired consumer} *)

type consumer = {
  catalog : Catalog.t;
  endpoint : Omf_transport.Endpoint.Receiver.t;
  unsubscribe : unit -> unit;
}

val attach_consumer :
  t -> stream:string -> ?creds:credentials -> Omf_machine.Abi.t -> consumer
(** Discover (possibly scoped) metadata from the broker, register it in a
    fresh catalog for the ABI, subscribe over an in-process loopback. *)

val poll : consumer -> (Omf_pbio.Format.t * Omf_pbio.Value.t) list
(** Drain and decode every queued event. *)
