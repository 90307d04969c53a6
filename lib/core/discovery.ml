(** Metadata discovery: finding the XML that defines message structure.

    Sources are ordered fallback chains (section 3.3): a system can use
    remote discovery as its primary method and compiled-in declarations as
    the fault-tolerant fallback, retaining "a useful, if degraded, level
    of functionality" when the network or metadata server is down.

    A [Document] source is any producer of schema text — a local file, an
    HTTP URL (the fetch closure comes from {!Omf_httpd}), an in-memory
    registry, a test injector. A [Compiled] source contributes PBIO
    declarations directly, exactly like the paper's compiled-in PBIO
    metadata. *)

open Omf_pbio

module Log = Omf_util.Log

type source =
  | Document of { label : string; fetch : unit -> string }
      (** fetch must return XML Schema text; any exception = source down *)
  | Compiled of { label : string; decls : Ftype.t list }

let source_label = function
  | Document { label; _ } -> label
  | Compiled { label; _ } -> label

(** Provenance kind of a winning label: the prefix before [':'] when it
    is one we mint ourselves ([file:], [http:], [registry:]...),
    ["inline"] for inline text, ["compiled"] for compiled-in
    declarations, ["document"] otherwise. *)
let origin_of_label (label : string) : string =
  match String.index_opt label ':' with
  | Some i -> (
    match String.sub label 0 i with
    | ("file" | "http" | "https" | "registry") as kind -> kind
    | _ -> "document")
  | None -> if String.equal label "inline" then "inline" else "document"

(** Process-wide discovery observability: which source kinds win, and
    how often a fallback had to ("fallback_wins") — so a system quietly
    running on degraded compiled-in metadata shows up on /metrics
    instead of staying silent. *)
let counters = Omf_util.Counters.create ()

let stats () = Omf_util.Counters.dump counters

(** Convenience constructors. *)

let from_string ?(label = "inline") text =
  Document { label; fetch = (fun () -> text) }

let from_file path =
  Document
    { label = "file:" ^ path
    ; fetch =
        (fun () ->
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))) }

let from_fetcher ~label fetch = Document { label; fetch }
let compiled ?(label = "compiled-in") decls = Compiled { label; decls }

exception Discovery_failed of (string * string) list
(** every source failed: [(source label, reason)] per source *)

type outcome = {
  formats : Format.t list;  (** in registration order *)
  source : string;  (** which source won *)
  origin : string;  (** its provenance kind, {!origin_of_label} *)
  document : string option;  (** the schema text, for [Document] sources *)
}

let register_document catalog ~label (text : string) : outcome =
  let schema = Omf_xschema.Schema.of_string text in
  let simple = Omf_xschema.Schema.find_simple_type schema in
  let formats =
    List.map
      (fun ct ->
        let decl = Mapper.decl_of_complex_type ~simple ct in
        Catalog.register catalog ~source:label decl)
      schema.Omf_xschema.Schema.types
  in
  { formats; source = label; origin = origin_of_label label
  ; document = Some text }

let register_compiled catalog ~label (decls : Ftype.t list) : outcome =
  let formats =
    List.map (fun d -> Catalog.register catalog ~source:label d) decls
  in
  { formats; source = label; origin = "compiled"; document = None }

type found = Text of string | Decls of Ftype.t list

(** The fallback-chain walk shared by {!discover}, the async worker and
    {!refresh}: [use ~fallback label found] turns the first working
    source into the result ([fallback] when an earlier source failed).
    Every failed fetch, and every source whose [use] raises (a document
    that fails schema parsing or registration), counts
    [source_failures] and falls through to the next source. A fetch is
    bounded by its fetcher's own deadline ({!Omf_httpd.Http.fetcher}'s
    socket deadline, say). *)
let walk ~use (sources : source list) =
  let rec go failures = function
    | [] -> raise (Discovery_failed (List.rev failures))
    | source :: rest -> (
      let label = source_label source in
      let fallback = failures <> [] in
      match
        match source with
        | Document { fetch; _ } -> use ~fallback label (Text (fetch ()))
        | Compiled { decls; _ } -> use ~fallback label (Decls decls)
      with
      | result -> result
      | exception e ->
        let reason = Printexc.to_string e in
        Omf_util.Counters.incr counters "source_failures";
        Log.warn (fun m -> m "source %s failed: %s" label reason);
        go ((label, reason) :: failures) rest)
  in
  go [] sources

(* registers what a source found and counts the win *)
let register catalog ~fallback label found =
  let outcome =
    match found with
    | Text text -> register_document catalog ~label text
    | Decls decls -> register_compiled catalog ~label decls
  in
  Omf_util.Counters.incr counters ("source_" ^ outcome.origin);
  if fallback then Omf_util.Counters.incr counters "fallback_wins";
  Log.info (fun m ->
      m "discovered %d format(s) from %s" (List.length outcome.formats) label);
  outcome

(** [discover catalog sources] tries each source in order and registers
    every format the first working source defines. Raises
    {!Discovery_failed} when all sources fail. *)
let discover (catalog : Catalog.t) (sources : source list) : outcome =
  if sources = [] then invalid_arg "Discovery.discover: no sources";
  walk ~use:(register catalog) sources

(* ------------------------------------------------------------------ *)
(* Async discovery                                                      *)
(* ------------------------------------------------------------------ *)

(** A discovery running on a background thread, so a subscriber can
    start consuming messages (buffering the raw frames) while its
    schema fetch is still in flight. *)
type async = {
  a_mutex : Mutex.t;
  a_cond : Condition.t;
  mutable a_result : (outcome, exn) result option;
}

let discover_async (catalog : Catalog.t) (sources : source list) : async =
  if sources = [] then invalid_arg "Discovery.discover_async: no sources";
  let a =
    { a_mutex = Mutex.create (); a_cond = Condition.create (); a_result = None }
  in
  ignore
    (Thread.create
       (fun () ->
         let r = try Ok (walk ~use:(register catalog) sources) with e -> Error e in
         Mutex.protect a.a_mutex (fun () ->
             a.a_result <- Some r;
             Condition.broadcast a.a_cond))
       ());
  a

let poll (a : async) : outcome option =
  match Mutex.protect a.a_mutex (fun () -> a.a_result) with
  | None -> None
  | Some (Ok outcome) -> Some outcome
  | Some (Error e) -> raise e

let await (a : async) : outcome =
  Mutex.lock a.a_mutex;
  while a.a_result = None do
    Condition.wait a.a_cond a.a_mutex
  done;
  let r = a.a_result in
  Mutex.unlock a.a_mutex;
  match r with
  | Some (Ok outcome) -> outcome
  | Some (Error e) -> raise e
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Change tracking / re-discovery                                       *)
(* ------------------------------------------------------------------ *)

(** A watched discovery: remembers the winning document so that a later
    [refresh] can detect metadata changes (the paper's "dynamically react
    to message format changes") and re-register only when something
    actually changed. *)
type watched = {
  catalog : Catalog.t;
  sources : source list;
  mutable last : outcome;
}

let watch (catalog : Catalog.t) (sources : source list) : watched =
  { catalog; sources; last = discover catalog sources }

let current (w : watched) = w.last

(** [refresh w] re-runs discovery; returns [Some outcome] if the metadata
    changed (and was re-registered), [None] if it is unchanged. A refresh
    whose sources all fail raises {!Discovery_failed} and leaves the
    previous registration in force. Its failed probes count
    [source_failures] as {!discover}'s do. *)
let refresh (w : watched) : outcome option =
  let use ~fallback label found =
    match found, w.last.document with
    | Text text, Some last when String.equal text last -> None
    (* compiled metadata cannot change at run time *)
    | Decls _, None -> None
    | _ ->
      let outcome = register w.catalog ~fallback label found in
      w.last <- outcome;
      Some outcome
  in
  walk ~use w.sources
