(** The event backbone (Figures 1 and 3): a publish/subscribe broker for
    named information streams.

    Capture points advertise a stream together with its XML Schema
    metadata; consumers subscribe over any {!Omf_transport.Link.t} and
    receive NDR frames. The broker:

    - relays the publisher's format-negotiation descriptor to every
      subscriber (replaying it to late joiners);
    - serves stream metadata to subscribers, optionally *scoped* by
      subscriber credentials (section 4.4's "format-scoping": slices of a
      stream are exposed or hidden per subscribing application) — a scoped
      subscriber registers the reduced format and NDR's match-by-name
      conversion drops the hidden fields on receive;
    - fans data frames out to all current subscribers. *)

open Omf_xml2wire

let log = Logs.Src.create "omf.backbone" ~doc:"event backbone broker"

module Log = (val Logs.src_log log)

type credentials = (string * string) list
(** free-form subscriber attributes, e.g. [("role", "display")] *)

(** A scope policy: which fields of the stream's types a subscriber with
    given credentials may see. [None] = everything. *)
type scope_policy = credentials -> string list option

exception Unknown_stream of string
exception Access_denied of string

type stream = {
  stream_name : string;
  mutable schema_text : string;
  mutable scope : scope_policy;
  mutable subscribers : subscriber list;
  mutable pending_frames : bytes list;
      (** descriptor frames seen so far, replayed to late joiners *)
  mutable published : int;
}

and subscriber = {
  sub_id : int;
  sub_creds : credentials;
  sub_link : Omf_transport.Link.t;  (** broker's sending end *)
}

type t = {
  streams : (string, stream) Hashtbl.t;
  mutable next_sub_id : int;
}

let create () : t = { streams = Hashtbl.create 8; next_sub_id = 1 }

let find_stream t name =
  match Hashtbl.find_opt t.streams name with
  | Some s -> s
  | None -> raise (Unknown_stream name)

let stream_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.streams []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Publisher side                                                       *)
(* ------------------------------------------------------------------ *)

(** [advertise t ~stream ~schema] announces (or re-announces, for format
    upgrades) a stream and its metadata document. *)
let advertise (t : t) ~(stream : string) ~(schema : string) : unit =
  (* validate the document before accepting it *)
  ignore (Omf_xschema.Schema.of_string schema);
  match Hashtbl.find_opt t.streams stream with
  | Some s ->
    s.schema_text <- schema;
    Log.info (fun m -> m "stream %s: metadata updated" stream)
  | None ->
    Hashtbl.replace t.streams stream
      { stream_name = stream; schema_text = schema
      ; scope = (fun _ -> None); subscribers = []; pending_frames = []
      ; published = 0 };
    Log.info (fun m -> m "stream %s: advertised" stream)

let set_scope (t : t) ~(stream : string) (policy : scope_policy) : unit =
  (find_stream t stream).scope <- policy

(** The publisher's transmission side: a virtual {!Omf_transport.Link.t}
    that fans every frame out to all subscribers; descriptor frames are
    remembered for replay. Use it under
    {!Omf_transport.Endpoint.Sender}. *)
let publisher_link (t : t) ~(stream : string) : Omf_transport.Link.t =
  let s = find_stream t stream in
  { Omf_transport.Link.send =
      (fun frame ->
        if
          Bytes.length frame > 0
          && Char.equal (Bytes.get frame 0)
               Omf_transport.Endpoint.frame_descriptor
        then begin
          (* dedupe by content: a publisher that reconnects (or a store
             recovery replay) re-announces the same descriptors; caching
             them twice would replay duplicates to every late joiner *)
          if not (List.exists (Bytes.equal frame) s.pending_frames) then
            s.pending_frames <- s.pending_frames @ [ Bytes.copy frame ]
        end;
        s.published <- s.published + 1;
        List.iter
          (fun sub ->
            try Omf_transport.Link.send sub.sub_link frame
            with Omf_transport.Link.Closed -> ())
          s.subscribers)
  ; recv = (fun () -> None)
  ; close = (fun () -> ()) }

(* ------------------------------------------------------------------ *)
(* Subscriber side                                                      *)
(* ------------------------------------------------------------------ *)

(** [scope_schema ~stream visible schema] is the schema document
    reduced to the [visible] field names ([None] = unchanged): section
    4.4's format-scoping rule. Raises {!Access_denied} when scoping
    leaves a type empty. *)
let scope_schema ~(stream : string) (visible : string list option)
    (schema : string) : string =
  match visible with
  | None -> schema
  | Some visible ->
    let schema = Omf_xschema.Schema.of_string schema in
    let scoped_types =
      List.map
        (fun (ct : Omf_xschema.Schema.complex_type) ->
          let kept =
            List.filter
              (fun (e : Omf_xschema.Schema.element) ->
                List.mem e.Omf_xschema.Schema.el_name visible)
              ct.Omf_xschema.Schema.ct_elements
          in
          if kept = [] then
            raise
              (Access_denied
                 (Printf.sprintf "stream %s: no visible fields in type %s"
                    stream ct.Omf_xschema.Schema.ct_name));
          { ct with Omf_xschema.Schema.ct_elements = kept })
        schema.Omf_xschema.Schema.types
    in
    Omf_xschema.Schema_write.to_string
      { schema with Omf_xschema.Schema.types = scoped_types }

(** [metadata_for t ~stream creds] returns the stream's schema document,
    scoped to what [creds] may see. This is the "dynamically generated
    metadata based on … authentication credentials" of section 4.4.
    Raises {!Access_denied} when scoping leaves a type empty. *)
let metadata_for (t : t) ~(stream : string) (creds : credentials) : string =
  let s = find_stream t stream in
  scope_schema ~stream (s.scope creds) s.schema_text

(** [subscribe t ~stream ~creds link] attaches the broker's sending end
    [link] (the subscriber holds the other end of the pair). Already-seen
    descriptor frames are replayed so late joiners can decode. Returns a
    function that unsubscribes. *)
let subscribe (t : t) ~(stream : string) ?(creds : credentials = [])
    (link : Omf_transport.Link.t) : unit -> unit =
  let s = find_stream t stream in
  let sub = { sub_id = t.next_sub_id; sub_creds = creds; sub_link = link } in
  t.next_sub_id <- t.next_sub_id + 1;
  List.iter (fun frame -> Omf_transport.Link.send link frame) s.pending_frames;
  s.subscribers <- s.subscribers @ [ sub ];
  Log.info (fun m ->
      m "stream %s: subscriber %d joined (%d total)" stream sub.sub_id
        (List.length s.subscribers));
  fun () ->
    s.subscribers <-
      List.filter (fun o -> o.sub_id <> sub.sub_id) s.subscribers

let subscriber_count (t : t) ~(stream : string) : int =
  List.length (find_stream t stream).subscribers

let published_count (t : t) ~(stream : string) : int =
  (find_stream t stream).published

(* ------------------------------------------------------------------ *)
(* Convenience: a fully wired consumer                                  *)
(* ------------------------------------------------------------------ *)

(** A consumer: discovers (possibly scoped) stream metadata from the
    broker, registers it in a fresh catalog for [abi], subscribes over an
    in-process loopback and decodes frames on demand. *)
type consumer = {
  catalog : Catalog.t;
  endpoint : Omf_transport.Endpoint.Receiver.t;
  unsubscribe : unit -> unit;
}

let attach_consumer (t : t) ~(stream : string)
    ?(creds : credentials = []) (abi : Omf_machine.Abi.t) : consumer =
  let catalog = Catalog.create abi in
  let schema = metadata_for t ~stream creds in
  ignore (Xml2wire.register_schema ~source:("broker:" ^ stream) catalog schema);
  let broker_end, consumer_end = Omf_transport.Loopback.pair () in
  let unsubscribe = subscribe t ~stream ~creds broker_end in
  let endpoint =
    Omf_transport.Endpoint.Receiver.create consumer_end
      (Catalog.registry catalog)
      (Omf_machine.Memory.create abi)
  in
  { catalog; endpoint; unsubscribe }

(** Drain every queued event for [c], returning decoded values. *)
let poll (c : consumer) : (Omf_pbio.Format.t * Omf_pbio.Value.t) list =
  let rec go acc =
    match Omf_transport.Endpoint.Receiver.recv_value c.endpoint with
    | Some ev -> go (ev :: acc)
    | None -> List.rev acc
    | exception Omf_transport.Loopback.Would_block -> List.rev acc
  in
  go []
