(** Minimal HTTP over TCP: enough protocol for metadata documents to
    be "retrieved from remote locations in the same manner that web
    browsers retrieve other XML documents" (section 7). The server
    answers GET only, with HTTP/1.0, and closes; the client sends
    HTTP/1.1 requests with [Connection: close].

    The server dispatches on a handler function; {!serve_table} and
    {!directory_handler} cover the metaserver use cases. The client's
    {!get} returns the body and doubles as the fetch closure for
    {!Omf_xml2wire.Discovery.from_fetcher}. *)

module Log = Omf_util.Log

exception Http_error of string

let http_error fmt = Printf.ksprintf (fun s -> raise (Http_error s)) fmt

type response = {
  status : int;
  reason : string;
  content_type : string;
  body : string;
}

let ok ?(content_type = "text/xml") body =
  { status = 200; reason = "OK"; content_type; body }

let not_found path =
  { status = 404; reason = "Not Found"; content_type = "text/plain"
  ; body = Printf.sprintf "no document at %s\n" path }

let server_error msg =
  { status = 500; reason = "Internal Server Error"
  ; content_type = "text/plain"; body = msg ^ "\n" }

let forbidden path =
  { status = 403; reason = "Forbidden"; content_type = "text/plain"
  ; body = Printf.sprintf "%s escapes the served tree\n" path }

(** Decode [%XX] escapes; [None] on a malformed escape. ['+'] is left
    alone — these are paths, not form bodies. *)
let percent_decode (s : string) : string option =
  let n = String.length s in
  let b = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else if s.[i] = '%' then
      if i + 2 >= n then None
      else
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char b (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ -> None
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

type handler = path:string -> headers:(string * string) list -> response

module Conn = Omf_reactor.Conn
module Server = Omf_reactor.Server

(** Every request must complete (headers in, response flushed) within
    this window or the connection is dropped — a client that connects
    and goes silent cannot pin server state. *)
let request_deadline_s = 10.0

(** Request headers larger than this are rejected with 400. *)
let max_request_bytes = 65536

let render (r : response) : Bytes.t =
  Bytes.of_string
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       r.status r.reason r.content_type (String.length r.body) r.body)

let bad_request msg =
  { status = 400; reason = "Bad Request"; content_type = "text/plain"
  ; body = msg ^ "\n" }

let parse_header_lines (lines : string list) : (string * string) list =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None (* tolerate junk header lines *)
      | Some i ->
        let k = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
        let v =
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        in
        Some (k, v))
    lines

let split_crlf (s : string) : string list =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)

(** Index one past the ["\r\n\r\n"] header terminator, scanning from
    [from]. *)
let find_headers_end (b : Buffer.t) (from : int) : int option =
  let len = Buffer.length b in
  let rec go i =
    if i + 4 > len then None
    else if
      Buffer.nth b i = '\r'
      && Buffer.nth b (i + 1) = '\n'
      && Buffer.nth b (i + 2) = '\r'
      && Buffer.nth b (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go (max 0 from)

type server = Server.t

let respond (conn : Conn.t) (r : response) =
  Conn.send_raw conn (render r);
  Conn.flush_close conn

let dispatch (handler : handler) ~path ~headers : response =
  let resp =
    try handler ~path ~headers with e -> server_error (Printexc.to_string e)
  in
  Log.info (fun m -> m "GET %s -> %d" path resp.status);
  resp

(** Parse head (request line + header lines, CRLF-separated, without
    the blank line); [Ok (path, headers)] or a ready error response.
    Only GET is served, so any other method is refused here, before a
    body could be waited for. *)
let parse_head (head : string) :
    (string * (string * string) list, response) result =
  match split_crlf head with
  | [] -> Error (bad_request "empty request")
  | request_line :: header_lines -> (
    match String.split_on_char ' ' request_line with
    | [ "GET"; path; _ ] | [ "GET"; path ] ->
      Ok (path, parse_header_lines header_lines)
    | _ -> Error (bad_request "only GET is supported"))

(** [connection handler] hosts one accepted socket: it reads one
    request head, answers it with [handler] and closes. The request
    must complete within {!request_deadline_s} or the connection is
    dropped. *)
let connection (handler : handler) : Server.accept =
 fun loop fd ~on_close ->
  let buf = Buffer.create 256 in
  let done_ = ref false in
  let answer conn resp =
    done_ := true;
    respond conn resp
  in
  let conn =
    (* zero-copy chunk delivery: the slice borrows the reactor's
       scratch buffer, valid only inside this dispatch — consumed
       immediately into the request accumulator, so no intermediate
       per-read [Bytes.t] copy is ever allocated *)
    Conn.attach loop fd ~mode:Chunks
      ~on_input:(fun conn (chunk : Omf_util.Slice.t) ->
        if not !done_ then begin
          let scan_from = Buffer.length buf - 3 in
          Buffer.add_subbytes buf chunk.Omf_util.Slice.buf
            chunk.Omf_util.Slice.off chunk.Omf_util.Slice.len;
          if Buffer.length buf > max_request_bytes then
            answer conn (bad_request "request too large")
          else
            match find_headers_end buf scan_from with
            | None -> ()
            | Some stop ->
              (* head excludes the blank line *)
              answer conn
                (match parse_head (Buffer.sub buf 0 (stop - 4)) with
                | Error resp -> resp
                | Ok (path, headers) -> dispatch handler ~path ~headers)
        end)
      ~on_close ()
  in
  Conn.set_deadline conn ~reason:"request timeout" (Some request_deadline_s);
  conn

(** [~port:0] binds an ephemeral port; read it with {!port}. *)
let serve ?(host = "127.0.0.1") ~port (handler : handler) : server =
  Server.start [ (host, port, connection handler) ]

let port (s : server) = List.hd (Server.ports s)
let shutdown = Server.shutdown

(** Serve a fixed table of [path -> document]. *)
let serve_table ~port (table : (string * string) list) : server =
  serve ~port (fun ~path ~headers:_ ->
      match List.assoc_opt path table with
      | Some body -> ok body
      | None -> not_found path)

(** The [*.xsd]-from-a-directory handler:
    [/name.xsd -> dir/name.xsd]. Percent-escapes are decoded before any
    check, so [%2e%2e] cannot smuggle a dot-dot past the filter. A path
    that tries to escape the tree ([..] segments, absolute [//...]) is
    a 403; a path that merely names nothing served here (subdirectory,
    non-[.xsd], missing file) is a 404. Exposed so callers (the
    metaserver) can wrap it — counting requests, mounting it next to
    other routes — before handing it to {!serve}. *)
let directory_handler (dir : string) : handler =
 fun ~path ~headers:_ ->
  match percent_decode path with
  | None -> bad_request (Printf.sprintf "malformed percent-encoding in %s" path)
  | Some decoded ->
    if String.length decoded = 0 || decoded.[0] <> '/' then
      bad_request "request path must be absolute"
    else
      let name = String.sub decoded 1 (String.length decoded - 1) in
      let segments = String.split_on_char '/' name in
      if List.exists (String.equal "..") segments then forbidden path
      else if String.length name > 0 && name.[0] = '/' then
        (* "//etc/passwd": an absolute path after the route slash *)
        forbidden path
      else if
        List.length segments > 1
        || String.equal name ""
        || not (Filename.check_suffix name ".xsd")
      then not_found path
      else
        let file = Filename.concat dir name in
        if Sys.file_exists file then begin
          let ic = open_in_bin file in
          let body =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          ok body
        end
        else not_found path

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

(** One blocking exchange, returning the full parsed response. Raises
    {!Http_error} only on transport problems (connect failure, timeout,
    truncated stream, malformed response). [timeout_s] bounds connection
    establishment and each read/write. The connection comes from
    {!Omf_transport.Tcp.dial}; the response head is parsed with the
    server's own head parser. *)
let exchange ~host ~port ~meth ~path ~content_type ~body ~timeout_s :
    response =
  let fd =
    try
      Omf_transport.Tcp.dial ~host ~port ~connect_timeout_s:timeout_s
        ~io_timeout_s:timeout_s ()
    with Omf_transport.Tcp.Tcp_error m -> raise (Http_error m)
  in
  let fail fmt = http_error ("%s %s:%d%s: " ^^ fmt) meth host port path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  (* one read appended to [buf]; [false] at end of stream *)
  let fill () =
    let n = Omf_transport.Tcp.read fd chunk 0 (Bytes.length chunk) in
    Buffer.add_subbytes buf chunk 0 n;
    n > 0
  in
  try
    let req =
      Printf.sprintf
        "%s %s HTTP/1.1\r\nHost: %s:%d\r\n%sContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        meth path host port
        (match content_type with
        | Some ct -> "Content-Type: " ^ ct ^ "\r\n"
        | None -> "")
        (String.length body) body
    in
    Omf_transport.Tcp.really_write fd (Bytes.unsafe_of_string req) 0
      (String.length req);
    let rec head_end from =
      match find_headers_end buf from with
      | Some stop -> stop
      | None ->
        let scanned = Buffer.length buf - 3 in
        if fill () then head_end scanned else raise End_of_file
    in
    let stop = head_end 0 in
    let status_line, headers =
      match split_crlf (Buffer.sub buf 0 (stop - 4)) with
      | l :: rest -> (l, parse_header_lines rest)
      | [] -> ("", [])
    in
    let status, reason =
      match String.split_on_char ' ' status_line with
      | _ :: code :: rest when int_of_string_opt code <> None ->
        (int_of_string code, String.concat " " rest)
      | _ -> http_error "bad status line %S" status_line
    in
    let got () = Buffer.length buf - stop in
    let resp_body =
      match List.assoc_opt "content-length" headers with
      | Some n -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
          (* a server that closes early must surface as a typed
             truncation error carrying the byte counts, not a silent
             short body *)
          while got () < n do
            if not (fill ()) then
              fail "truncated body: got %d of %d bytes" (got ()) n
          done;
          Buffer.sub buf stop n
        | _ -> http_error "bad content-length %S" n)
      | None ->
        (* no length: the body runs to the end of the stream *)
        while fill () do () done;
        Buffer.sub buf stop (got ())
    in
    { status; reason
    ; content_type =
        Option.value ~default:"text/plain"
          (List.assoc_opt "content-type" headers)
    ; body = resp_body }
  with
  | End_of_file -> fail "unexpected end of stream"
  | Omf_transport.Link.Timeout ->
    fail "timeout after %.3gs" timeout_s
  | e -> (
    (* e.g. a connection reset mid-body: still a typed transport error *)
    match Omf_transport.Tcp.failure_message e with
    | Some m -> fail "%s" m
    | None -> raise e)

let request ~port ~meth ~path () : response =
  exchange ~host:"127.0.0.1" ~port ~meth ~path ~content_type:None ~body:""
    ~timeout_s:5.0

(** [get ~port ~path] performs a blocking GET and returns the body.
    Raises {!Http_error} on connection failure or non-200 status — which
    is exactly what a {!Omf_xml2wire.Discovery} source should do so the
    fallback chain can take over. *)
let get ~port ~path ?(timeout_s = 5.0) () : string =
  let r =
    exchange ~host:"127.0.0.1" ~port ~meth:"GET" ~path ~content_type:None
      ~body:"" ~timeout_s
  in
  if r.status <> 200 then http_error "GET %s: HTTP %d" path r.status;
  r.body

(** A {!Omf_xml2wire.Discovery}-compatible fetch closure for a URL. *)
let fetcher ~port ~path () : unit -> string = fun () -> get ~port ~path ()

(* "http://host[:port]/path" -> (host, port, path) *)
let split_url (url : string) : (string * int * string, string) result =
  let prefix = "http://" in
  let pl = String.length prefix in
  if String.length url <= pl || String.sub url 0 pl <> prefix then
    Error (Printf.sprintf "push: unsupported url %S (want http://...)" url)
  else
    let rest = String.sub url pl (String.length url - pl) in
    let hostport, path =
      match String.index_opt rest '/' with
      | Some i ->
        (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      | None -> (rest, "/metrics/job/omf")
    in
    match String.index_opt hostport ':' with
    | Some i -> (
      let host = String.sub hostport 0 i in
      match
        int_of_string_opt
          (String.sub hostport (i + 1) (String.length hostport - i - 1))
      with
      | Some port when host <> "" && port > 0 -> Ok (host, port, path)
      | _ -> Error (Printf.sprintf "push: malformed host:port in %S" url))
    | None ->
      if hostport = "" then Error (Printf.sprintf "push: no host in %S" url)
      else Ok (hostport, 80, path)

(** One-shot POST of Prometheus text to [url] — push-gateway mode for
    short-lived tools (relay_loadgen, the bench harness) whose
    counters would vanish before any scrape. Blocking, bounded by 2 s
    on connect and on each read/write; all failures come back as
    [Error msg] (a metrics push must never kill the tool). *)
let push ~url
    (sources : (string * (string * int) list) list) : (unit, string) result =
  match split_url url with
  | Error _ as e -> e
  | Ok (host, port, path) -> (
    let body =
      String.concat ""
        (List.map
           (fun (component, snapshot) ->
             Omf_util.Counters.prometheus ~component snapshot)
           sources)
    in
    match
      exchange ~host ~port ~meth:"POST" ~path
        ~content_type:(Some "text/plain; version=0.0.4") ~body ~timeout_s:2.0
    with
    | r when r.status / 100 = 2 -> Ok ()
    | r -> Error (Printf.sprintf "push: %s refused: %d %s" url r.status r.reason)
    | exception Http_error m -> Error (Printf.sprintf "push %s: %s" url m))

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

(** [metrics_handler sources] answers [GET /metrics] with a
    Prometheus-text rendering of each [(component, snapshot)] source —
    snapshots are taken per request, so mounting a relay's merged
    per-shard counters here gives live scrape data. [routes] mounts
    extra [(path, thunk)] endpoints beside [/metrics] (relayd's
    [/trace/spans]); thunks run per request.
    Everything else is 404. *)
let metrics_handler ?(staleness = false)
    ?(routes : (string * (unit -> response)) list = [])
    (sources : (string * (unit -> (string * int) list)) list) : handler =
  (* One tracker for the handler's lifetime: scrape N+1 is compared
     against scrape N. All requests run on the server's single reactor
     thread, so the unguarded mutation is safe. *)
  let tracker =
    if staleness then Some (Omf_util.Counters.staleness ()) else None
  in
  fun ~path ~headers:_ ->
    if String.equal path "/metrics" then
      ok
        ~content_type:"text/plain; version=0.0.4"
        (String.concat ""
           (List.map
              (fun (component, snapshot) ->
                Omf_util.Counters.prometheus ?staleness:tracker ~component
                  (snapshot ()))
              sources))
    else
      match List.assoc_opt path routes with
      | Some thunk -> thunk ()
      | None -> not_found path
