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
    non-primary source won, [source_failures] per failed fetch (of a
    discovery or a refresh) — so degraded metadata is observable, not
    silent. *)

val from_string : ?label:string -> string -> source
val from_file : string -> source
val from_fetcher : label:string -> (unit -> string) -> source
val compiled : ?label:string -> Ftype.t list -> source

exception Discovery_failed of (string * string) list
(** Every source failed: [(source label, reason)] per source. *)

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

val discover : Catalog.t -> source list -> outcome
(** Try each source in order; register every format the first working
    source defines. Raises {!Discovery_failed} when all fail.

    A [Document] fetch that raises falls through to the next source at
    once. Each fetch is as bounded as its fetcher: an
    {!Omf_httpd.Http.fetcher} gives up after its 5 s socket deadline,
    so a hung metadata server becomes a fallback, not a hang. *)

(** {1 Async discovery} *)

type async
(** A discovery running on a background thread: a subscriber can start
    consuming messages (buffering raw frames) while its schema fetch is
    still in flight, then decode everything once the fetch lands. *)

val discover_async : Catalog.t -> source list -> async
(** Start {!discover} on a worker thread and return immediately. *)

val poll : async -> outcome option
(** [None] while the discovery is still running. Re-raises the
    discovery's exception ({!Discovery_failed}...) if it failed. *)

val await : async -> outcome
(** Block until the discovery completes; re-raises on failure. *)

(** {1 Change tracking} *)

type watched
(** A discovery whose winning document is remembered so that metadata
    changes can be detected and re-registered at run time. *)

val watch : Catalog.t -> source list -> watched
(** As {!discover}, remembering the winning document for {!refresh}. *)

val current : watched -> outcome

val refresh : watched -> outcome option
(** Re-run discovery: [Some outcome] if the metadata changed (and was
    re-registered), [None] if unchanged. When all sources fail, raises
    {!Discovery_failed} and leaves the previous registration in force. *)
