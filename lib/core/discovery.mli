(** Metadata discovery: ordered fallback chains over document producers
    (files, HTTP fetchers, inline text) and compiled-in declarations —
    remote discovery as the primary method, compiled-in metadata as the
    fault-tolerant fallback (section 3.3). *)

open Omf_pbio

type source =
  | Document of { label : string; fetch : unit -> string }
      (** must return XML Schema text; any exception = source down *)
  | Compiled of { label : string; decls : Ftype.t list }

val stats : unit -> (string * int) list
(** Process-wide discovery counters: [source_<origin>] per win (a
    discovery, or a {!refresh} that re-registers), [fallback_wins] when a
    non-primary source won, [source_failures] per failed probe (of a
    discovery or a refresh), [cancelled]/[superseded] for async discoveries
    aborted by {!cancel} or a newer keyed {!discover_async} — so
    degraded metadata is observable, not silent. *)

val from_string : ?label:string -> string -> source
val from_file : string -> source
val from_fetcher : label:string -> (unit -> string) -> source
val compiled : ?label:string -> Ftype.t list -> source

exception Discovery_failed of (string * string) list
(** Every source failed: [(source label, reason)] per attempt. *)

type outcome = {
  formats : Format.t list;  (** in registration order *)
  source : string;  (** which source won *)
  origin : string;
      (** its provenance kind: the label's prefix before [':'] when it is
          [file] / [http] / [https] / [registry], ["inline"] for inline
          text, ["compiled"] for compiled-in declarations, ["document"]
          otherwise *)
  document : string option;  (** the schema text, for [Document] wins *)
}

val register_document : Catalog.t -> label:string -> string -> outcome

val discover :
  ?attempts:int -> ?timeout_s:float -> Catalog.t -> source list -> outcome
(** Try each source in order; register every format the first working
    source defines. Raises {!Discovery_failed} when all fail.

    [timeout_s] puts a wall-clock deadline on each [Document] fetch (a
    hung metadata server becomes a fallback, not a hang); [attempts]
    (default 1) retries a failing source before falling through to the
    next one, so transient loss of the primary source does not flip the
    system onto degraded metadata. Defaults preserve plain blocking
    behaviour. *)

(** {1 Async discovery} *)

type async
(** A discovery running on a background thread: a subscriber can start
    consuming messages (buffering raw frames) while its schema fetch is
    still in flight, then decode everything once the fetch lands. *)

exception Cancelled
(** The discovery was aborted by {!cancel} (directly, or superseded by
    a newer keyed {!discover_async}). *)

val discover_async : ?key:string -> Catalog.t -> source list -> async
(** Start {!discover} (one attempt per source, no deadline) on a worker
    thread and return immediately.

    With [?key], a new discovery supersedes any still-in-flight one
    for the same key: the prior async is {!cancel}led — its {!poll} /
    {!await} raise {!Cancelled}, and even if its fetch later lands it
    registers nothing and bumps no win counters, so a stream whose
    discovery was re-triggered counts exactly one win. *)

val cancel : async -> unit
(** Abort a running discovery: {!poll} / {!await} raise {!Cancelled}
    from now on. First-writer-wins — cancelling an already completed
    discovery is a no-op, and a worker finishing after the cancel
    drops its outcome (no catalog mutation, no win counters). *)

val poll : async -> outcome option
(** [None] while the discovery is still running. Re-raises the
    discovery's exception ({!Discovery_failed}, {!Cancelled}...) if it
    failed. *)

val await : async -> outcome
(** Block until the discovery completes; re-raises on failure. *)

(** {1 Change tracking} *)

type watched
(** A discovery whose winning document is remembered so that metadata
    changes can be detected and re-registered at run time. *)

val watch : Catalog.t -> source list -> watched
(** As {!discover} (one attempt per source, no deadline), remembering
    the winning document for {!refresh}. *)

val current : watched -> outcome

val refresh : watched -> outcome option
(** Re-run discovery: [Some outcome] if the metadata changed (and was
    re-registered), [None] if unchanged. When all sources fail, raises
    {!Discovery_failed} and leaves the previous registration in force. *)
