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

let log = Logs.Src.create "omf.discovery" ~doc:"xml2wire metadata discovery"

module Log = (val Logs.src_log log)

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
(** every source failed: [(source label, reason)] per attempt *)

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

(* ------------------------------------------------------------------ *)
(* Bounded fetching                                                     *)
(* ------------------------------------------------------------------ *)

(** Run [fetch] under a wall-clock deadline: the fetch runs in a worker
    thread and the caller polls for its result. On expiry the source is
    declared down and the chain moves on — the worker may linger until
    its own I/O fails, but it can no longer win (first writer takes the
    slot) and the chain is not blocked on it. This matters for fetchers
    with no native deadline: a TCP connect to a silently dropping host
    can hang for minutes, far longer than falling back to compiled-in
    metadata should take. *)
let fetch_bounded ~(timeout_s : float option) (fetch : unit -> string) :
    (string, string) result =
  match timeout_s with
  | None -> ( try Ok (fetch ()) with e -> Error (Printexc.to_string e))
  | Some dt ->
    let result = ref None in
    let lock = Mutex.create () in
    let put r =
      Mutex.lock lock;
      (match !result with None -> result := Some r | Some _ -> ());
      Mutex.unlock lock
    in
    ignore
      (Thread.create
         (fun () ->
           put (try Ok (fetch ()) with e -> Error (Printexc.to_string e)))
         ());
    let deadline = Omf_util.Clock.now_us () + Float.to_int (dt *. 1e6) in
    let rec wait () =
      Mutex.lock lock;
      let r = !result in
      Mutex.unlock lock;
      match r with
      | Some r -> r
      | None ->
        if Omf_util.Clock.now_us () >= deadline then begin
          let timeout = Error (Printf.sprintf "timeout after %.3gs" dt) in
          put timeout;
          timeout
        end
        else begin
          Thread.delay 0.002;
          wait ()
        end
    in
    wait ()

let probe_document ~attempts ~timeout_s ~label (fetch : unit -> string) :
    (string, string) result =
  let rec go attempt last =
    if attempt > attempts then Error last
    else
      match fetch_bounded ~timeout_s fetch with
      | Ok text -> Ok text
      | Error reason ->
        Log.warn (fun m ->
            m "source %s attempt %d/%d failed: %s" label attempt attempts
              reason);
        go (attempt + 1) reason
  in
  go 1 "no attempts"

exception Cancelled
(** The discovery was cancelled ({!cancel}) — typically superseded by
    a newer {!discover_async} for the same key. *)

type found = Text of string | Decls of Ftype.t list

(** The fallback-chain walk shared by {!discover}, the async worker and
    {!refresh}: [use ~fallback label found] turns the first working
    source into the result ([fallback] when an earlier source failed).
    Every failed probe, and every source whose [use] raises (a document
    that fails schema parsing or registration), counts
    [source_failures] and falls through to the next source.
    [cancelled] is consulted before each source and — crucially — after
    a successful fetch, {e before} [use]: a discovery superseded
    mid-fetch neither mutates the catalog nor double-counts a win when
    its fetch finally lands. *)
let walk ~attempts ~timeout_s ~(cancelled : unit -> bool) ~use
    (sources : source list) =
  let rec go failures = function
    | [] -> raise (Discovery_failed (List.rev failures))
    | source :: rest -> (
      if cancelled () then raise Cancelled;
      let label = source_label source in
      let fallback = failures <> [] in
      match
        match source with
        | Document { fetch; _ } -> (
          match probe_document ~attempts ~timeout_s ~label fetch with
          | Ok text ->
            if cancelled () then raise Cancelled;
            Ok (use ~fallback label (Text text))
          | Error reason -> Error reason)
        | Compiled { decls; _ } -> Ok (use ~fallback label (Decls decls))
      with
      | Ok result -> result
      | Error reason ->
        Omf_util.Counters.incr counters "source_failures";
        go ((label, reason) :: failures) rest
      | exception Cancelled -> raise Cancelled
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
    {!Discovery_failed} when all sources fail.

    [timeout_s] puts a wall-clock deadline on each [Document] fetch (a
    hung metadata server becomes a fallback, not a hang) and
    [attempts] retries a failing source that many times before the
    chain falls through to the next one — transient loss of the
    primary source should not flip a system onto degraded metadata.
    The defaults (one attempt, no deadline) preserve plain blocking
    behaviour. *)
let discover ?(attempts = 1) ?timeout_s (catalog : Catalog.t)
    (sources : source list) : outcome =
  if sources = [] then invalid_arg "Discovery.discover: no sources";
  if attempts < 1 then invalid_arg "Discovery.discover: attempts < 1";
  walk ~attempts ~timeout_s
    ~cancelled:(fun () -> false)
    ~use:(register catalog) sources

(* ------------------------------------------------------------------ *)
(* Async discovery                                                      *)
(* ------------------------------------------------------------------ *)

(** A discovery running on a background thread, so a subscriber can
    start consuming messages (buffering the raw frames) while its
    schema fetch is still in flight — the overlap the ROADMAP's "async
    discovery" item asks for. *)
type async = {
  a_mutex : Mutex.t;
  a_cond : Condition.t;
  mutable a_result : (outcome, exn) result option;
  mutable a_cancelled : bool;
      (** read without the mutex by the worker between sources — a
          benign race: a just-missed flag costs one extra probe, and
          the result slot itself is first-writer-wins under the
          mutex *)
}

(** First-writer-wins on the result slot: a cancel that loses the race
    to a completed discovery is a no-op, and a worker finishing after
    a cancel finds the slot taken and drops its outcome. *)
let cancel (a : async) : unit =
  Mutex.lock a.a_mutex;
  a.a_cancelled <- true;
  (match a.a_result with
  | None ->
    a.a_result <- Some (Error Cancelled);
    Omf_util.Counters.incr counters "cancelled";
    Condition.broadcast a.a_cond
  | Some _ -> ());
  Mutex.unlock a.a_mutex

(* the ?key supersede table: a new keyed discovery aborts the one
   still in flight for the same key, so only the newest can win *)
let keyed_mu = Mutex.create ()
let keyed : (string, async) Hashtbl.t = Hashtbl.create 8

let discover_async ?key (catalog : Catalog.t) (sources : source list) : async
    =
  if sources = [] then invalid_arg "Discovery.discover_async: no sources";
  let a =
    { a_mutex = Mutex.create (); a_cond = Condition.create ()
    ; a_result = None; a_cancelled = false }
  in
  (match key with
  | None -> ()
  | Some k ->
    Mutex.lock keyed_mu;
    let prior = Hashtbl.find_opt keyed k in
    Hashtbl.replace keyed k a;
    Mutex.unlock keyed_mu;
    (match prior with
    | Some p ->
      Omf_util.Counters.incr counters "superseded";
      cancel p
    | None -> ()));
  ignore
    (Thread.create
       (fun () ->
         let r =
           try
             Ok
               (walk ~attempts:1 ~timeout_s:None
                  ~cancelled:(fun () -> a.a_cancelled)
                  ~use:(register catalog) sources)
           with e -> Error e
         in
         Mutex.lock a.a_mutex;
         (match a.a_result with
         | None ->
           a.a_result <- Some r;
           Condition.broadcast a.a_cond
         | Some _ -> ());
         Mutex.unlock a.a_mutex)
       ());
  a

let poll (a : async) : outcome option =
  Mutex.lock a.a_mutex;
  let r = a.a_result in
  Mutex.unlock a.a_mutex;
  match r with
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
  walk ~attempts:1 ~timeout_s:None
    ~cancelled:(fun () -> false)
    ~use w.sources
