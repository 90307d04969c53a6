(** Minimal HTTP over TCP: enough protocol for metadata documents to be
    retrieved "in the same manner that web browsers retrieve other XML
    documents" (section 7). The server answers GET only, with HTTP/1.0,
    and closes; any other method is a 400. The client sends HTTP/1.1
    with [Connection: close] over {!Omf_transport.Tcp.dial}, and POSTs
    only to push metrics to a gateway ({!push}). *)

exception Http_error of string

type response = {
  status : int;
  reason : string;
  content_type : string;
  body : string;
}

val ok : ?content_type:string -> string -> response
val not_found : string -> response
(** {1 Server} *)

type handler = path:string -> headers:(string * string) list -> response

val connection : handler -> Omf_reactor.Server.accept
(** The per-connection half of the server, for a listener of an
    {!Omf_reactor.Server} that hosts other listeners too (the
    registry's metrics, metaserver's documents and metrics): read one
    request head, answer a GET with the handler and anything else with
    a 400 ["only GET is supported"], close. Each request must complete
    within a 10 s deadline or its connection is dropped. *)

type server

val port : server -> int
(** The actually bound port (useful with [~port:0]). *)

val serve : ?host:string -> port:int -> handler -> server
(** Serve GET on one {!Omf_reactor.Server} listener
    ({!connection}): the accept loop and every connection on one
    reactor thread. [~port:0] binds an ephemeral port (read it with {!port}). *)

val shutdown : server -> unit
(** Stop accepting, close in-flight connections, join the loop thread.
    Idempotent. *)

val serve_table : port:int -> (string * string) list -> server
(** Serve a fixed [path -> document] table. *)

val directory_handler : string -> handler
(** Serve the [*.xsd] files of a directory: [/name.xsd -> dir/name.xsd].
    Percent-escapes are decoded before any check; a path that tries to
    escape the tree ([..] segments, absolute [//...]) is 403, one that
    merely names nothing served here (subdirectory, non-[.xsd],
    missing) is 404. Exposed so callers can wrap it (request counting,
    extra routes) before {!serve}. *)

val metrics_handler :
  ?staleness:bool ->
  ?routes:(string * (unit -> response)) list ->
  (string * (unit -> (string * int) list)) list ->
  handler
(** [metrics_handler sources] answers [GET /metrics] with each
    [(component, snapshot)] rendered as Prometheus text
    ([omf_<component>_<name> <value>] lines); snapshots are taken per
    request. [~staleness:true] adds scrape-time staleness marks
    (default off): each scrape is compared against the previous one
    and annotated with a [# staleness] comment plus an
    [omf_<component>_stale] marker series counting unchanged series —
    see {!Omf_util.Counters.prometheus}. [routes] mounts extra
    [(path, thunk)] endpoints beside [/metrics] — relayd's
    [/trace/spans] lives here. Everything else is 404. It runs on a port of its own ([serve ~port (metrics_handler
    sources)]: relayd and metaserver [--metrics-port], the registry's
    [?metrics_port]). *)

(** {1 Client} *)

val request : port:int -> meth:string -> path:string -> unit -> response
(** Blocking body-less request to [127.0.0.1:port] returning the full
    parsed response — status included, so callers that care about
    403-vs-404 or a refused method can inspect it. Raises {!Http_error} only on
    transport problems (connect failure, timeout, truncated or
    malformed response). Connection establishment and each read/write
    are bounded by 5 s. *)

val get : port:int -> path:string -> ?timeout_s:float -> unit -> string
(** Blocking GET to [127.0.0.1:port]; returns the body. Raises
    {!Http_error} on connection failure or non-200 — exactly what a
    discovery source should do so the fallback chain can take over.
    [timeout_s] (default 5 s) bounds connection establishment and each
    read/write, so a server that accepts but never answers becomes an
    {!Http_error} instead of a hang. *)

val fetcher : port:int -> path:string -> unit -> unit -> string
(** A {!Omf_xml2wire.Discovery}-compatible fetch closure for a URL: a
    {!get} with its default deadline. *)

val push :
  url:string ->
  (string * (string * int) list) list ->
  (unit, string) result
(** [push ~url sources] POSTs the {!Omf_util.Counters.prometheus}
    rendering of each [(component, snapshot)] source to [url] in one
    request — push-gateway mode for short-lived tools (the load
    generator, the bench harness) that exit before any scrape could
    happen. [url] is [http://host[:port][/path]]; the path defaults to
    [/metrics/job/omf]. Blocking, bounded by 2 s per socket operation; every failure (resolution, refusal, non-2xx)
    is returned as [Error message], never raised. *)
