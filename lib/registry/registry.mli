(** Versioned, content-addressed schema registry.

    Subjects map to immutable version chains. Each version is keyed by
    the SHA-256 fingerprint of its canonicalized descriptor
    ({!Omf_xschema.Schema.canonical}), so registration is idempotent —
    re-registering a structurally identical document returns the
    existing version — and receivers can bind conversion plans by
    fingerprint instead of refetching blobs. Registration passes a
    configurable compatibility gate that structurally diffs the new
    document against the subject's latest version
    ({!Omf_xml2wire.Compat}): a field added with a defaultable value is
    fine, a field removed or retyped is rejected per mode.

    The registry persists on the durable {!Omf_store} machinery
    (append-only, CRC-framed, recovered at startup) and is served over
    one protocol, length-prefixed binary frames (doc/REGISTRY.md,
    doc/PROTOCOLS.md section 14); from a shell, [xml2wire register] and
    [xml2wire fetch] speak it through {!Client}. *)

(** {1 Compatibility modes} *)

type compat_mode =
  | No_check  (** accept anything that parses *)
  | Backward
      (** readers of the old version keep working on new data: fields
          may be added, never removed or retyped *)
  | Forward
      (** readers of the new version can consume old data: fields may
          be removed, never added-without-default or retyped *)
  | Full  (** both directions: additions and removals both rejected *)

val compat_mode_of_string : string -> (compat_mode, string) result
(** ["none"], ["backward"], ["forward"], ["full"]. *)

val compat_mode_to_string : compat_mode -> string

(** {1 Versions} *)

type version = {
  subject : string;
  version : int;  (** 1-based, dense per subject *)
  fingerprint : string;  (** lowercase hex SHA-256 of the canonical form *)
  schema : string;  (** the registered document, verbatim *)
}

val fingerprint_of : string -> string
(** [fingerprint_of text] parses [text] as XML Schema and returns the
    hex SHA-256 of its canonical form. Raises
    {!Omf_xschema.Schema.Schema_error} on malformed documents. *)

(** {1 The registry} *)

type t

exception Incompatible of {
  subject : string;
  mode : compat_mode;
  reports : Omf_xml2wire.Compat.report list;
      (** only formats whose verdict exceeds [Safe] *)
}
(** Registration refused by the compatibility gate; the reports carry
    the structured per-format, per-field diff. *)

exception Invalid_subject of string
(** A subject the store could not read back: empty, or containing a
    newline (each record keeps its subject on one line). *)

val diff_lines : Omf_xml2wire.Compat.report list -> string list
(** Render gate reports as one ["severity format.field: description"]
    line per change — the body of the wire's ['e'] reply. *)

val create : ?store:Omf_store.Store.config -> ?mode:compat_mode -> unit -> t
(** An empty registry. [mode] (default [Backward]) gates every subject
    unless overridden with {!set_mode}. With [store], state is
    persisted under the store root (stream ["registry"]) and recovered
    here: reopening the same root yields the same subjects, versions,
    fingerprints and mode overrides. *)

val close : t -> unit
(** Flush and close the backing store, if any. Idempotent. *)

val register : t -> subject:string -> string -> version
(** Register a schema document under [subject]. Idempotent by content:
    if the canonical fingerprint already exists in the subject's chain,
    that version is returned unchanged. Otherwise the document is
    gated against the subject's latest version and appended as a new
    immutable version. Raises {!Invalid_subject} on a subject the
    store could not read back, {!Omf_xschema.Schema.Schema_error} on
    documents that do not parse and {!Incompatible} on gate refusal. *)

val set_mode : t -> subject:string -> compat_mode -> unit
(** Per-subject override of the registry-wide mode; persisted. Raises
    {!Invalid_subject} as {!register} does. *)

val mode : t -> subject:string -> compat_mode

val subjects : t -> string list  (** sorted *)

val versions : t -> string -> version list
(** The subject's chain, oldest first; [] for unknown subjects. *)

val latest : t -> string -> version option
val by_fingerprint : t -> string -> version option
(** Content-addressed lookup across all subjects. *)

val stats : t -> (string * int) list
(** Counter snapshot (registrations, idempotent hits, gate rejections,
    lookups, recovered records...). *)

(** {1 Server} *)

module Server : sig
  (** Serves a registry over the binary frame protocol and optionally
      Prometheus metrics (HTTP, GET only), both on one
      {!Omf_reactor.Server} loop thread.

      Binary requests (length-prefixed frames over {!Omf_transport.Tcp}):
      - ['R' "subject\n" schema] — register; reply
        ['o' "version=N\nfingerprint=HEX"] or ['e' reason] (gate
        refusals carry one diff line per change after the first line;
        an empty subject is refused)
      - ['V' "subject\nN|latest"] — fetch a version; reply
        ['o' "version=N\nfingerprint=HEX\n" schema] or ['e'];
      - ['F' hex] — content-addressed fetch; reply
        ['o' "subject=S\nversion=N\n" schema] or ['e']
      - ['L'] — list; reply ['o'] with one "subject versions mode" line
        per subject
      - ['t'] — counter snapshot, {!Omf_util.Counters.to_text} body

      Any other request kind closes the connection. *)

  type server

  val start : ?host:string -> port:int -> ?metrics_port:int -> t -> server
  (** [~port:0] (and [~metrics_port:0]) bind ephemeral ports; read them
      back from the accessors. A port that does not bind raises its
      [Unix_error], leaving no port bound and no thread running. *)

  val port : server -> int
  val metrics_port : server -> int option
  val shutdown : server -> unit
end

(** {1 Client} *)

module Client : sig
  type t

  exception Server_unavailable of string
  exception Rejected of string
  (** Registration refused; the message is the server's ['e'] reply: a
      gate refusal reads ["incompatible with MODE gate"] and then one
      diff line per change. *)

  val connect : ?host:string -> port:int -> unit -> t
  (** Connect to the registry on [host:port] through
      {!Omf_transport.Tcp.connect} ([host] defaults to 127.0.0.1 and
      may be a name). A 5 s deadline
      bounds connection establishment and each later send or receive:
      a server that accepts but never answers makes the call raise
      {!Server_unavailable} instead of hanging. *)

  val close : t -> unit

  val register : t -> subject:string -> string -> int * string
  (** [(version, fingerprint)]; raises {!Rejected} on gate refusal. *)

  val get : t -> subject:string -> [ `Latest | `N of int ] -> version option
  val by_fingerprint : t -> string -> version option
  val subjects : t -> (string * int * string) list
  (** [(subject, versions, mode)] per subject. *)

  val stats : t -> (string * int) list
end

(** {1 Caching resolver} *)

module Resolver : sig
  (** Client-side cache over a registry connection: positive entries
      are immutable (versions never change under a (subject, version)
      key, so they cache forever); misses are
      negatively cached for [neg_ttl_s] so a hot path cannot hammer
      the server asking for a version that does not exist; an outage
      (any transport failure) is counted as an error and never cached. *)

  type t

  val create : ?neg_ttl_s:float -> Client.t -> t
  (** [neg_ttl_s] defaults to 1.0 s. *)

  val resolve : t -> subject:string -> [ `Latest | `N of int ] -> version option
  (** [`Latest] consults the server each time it is not positively
      cached yet (the chain can grow); [`N _] hits are cached forever.
      [None] while a negative entry is fresh. *)

  val stats : t -> (string * int) list
  (** hits / misses / negative hits. *)
end
