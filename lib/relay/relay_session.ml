(** The Pbio-typed clients of the relay, built on the raw
    {!Relay_client.Client}: fault-tolerant publisher and subscriber
    sessions with reconnect and replay, both driven by
    {!Relay_client.reconnect} and {!Relay_client.busy_wait}.

    Every one negotiates formats the one way the paper's endpoint
    protocol describes ({!Omf_transport.Endpoint}): a sender announces
    each format's descriptor once per connection, and a receiver learns
    it once ({!Omf_pbio.Pbio.Receiver.learn}) and then converts every
    message. The contract of every entry point is in
    relay_session.mli. *)

open Omf_transport
module Client = Relay_client.Client
module Proto = Relay_proto
module Trace = Omf_trace.Trace
module Catalog = Omf_xml2wire.Catalog
module Pbio = Omf_pbio.Pbio
module Format = Omf_pbio.Format
module Value = Omf_pbio.Value

module Log = Omf_util.Log

exception Gave_up = Relay_client.Gave_up
exception Overflow of string

type config = {
  host : string;
  port : int;
  creds : (string * string) list;  (** sent in every HELLO *)
  auth : (string * string) option;  (** [(key-id, secret)] *)
  compress : bool;
  max_attempts : int;  (** reconnect attempts per outage *)
  base_delay_s : float;  (** first backoff step *)
  max_delay_s : float;  (** backoff cap *)
  connect_timeout_s : float;
}

let config ?(host = "127.0.0.1") ?(creds = []) ?auth ?(compress = false)
    ?(max_attempts = 10) ?(base_delay_s = 0.05) ?(max_delay_s = 2.0)
    ?(connect_timeout_s = 5.0) ~port () : config =
  { host; port; creds; auth; compress; max_attempts; base_delay_s
  ; max_delay_s; connect_timeout_s }

let sessions = Atomic.make 0

(* a session's driver: its budget and backoff, and its close flag. Each
   session seeds its own jitter, so sessions that lose one relay
   together do not retry in lockstep. *)
let retry (cfg : config) ~stream (closed : bool Atomic.t) =
  let stopped () = Atomic.get closed in
  let seed = Hashtbl.hash (stream, Atomic.fetch_and_add sessions 1) in
  Relay_client.retry ~attempts:cfg.max_attempts ~base_s:cfg.base_delay_s
    ~max_s:cfg.max_delay_s ~seed:(Int64.of_int seed) ~stopped
    ~sleep:(Relay_client.nap ~stopped)

(** Open a connection and run the session's handshake [f] on it. A
    reconnect HELLO adds an [omf-reconnect] credential, so relay STATS
    expose churn ([reconnects_accepted]). The connection is closed if
    [f] fails, and if the session was closed meanwhile: nobody owns it
    any more ({!Relay_client.Stopped}). *)
let dial ?(reconnect = false) (cfg : config) closed (f : Client.t -> 'a) : 'a =
  let creds =
    if reconnect then cfg.creds @ [ ("omf-reconnect", "1") ] else cfg.creds
  in
  let client =
    Client.connect ~host:cfg.host ~port:cfg.port ~creds ?auth:cfg.auth
      ~compress:cfg.compress ~connect_timeout_s:cfg.connect_timeout_s ()
  in
  match f client with
  | v ->
    if Atomic.get closed then begin
      Client.close client;
      raise Relay_client.Stopped
    end;
    v
  | exception e ->
    Client.close client;
    raise e

let refused = function Client.Error msg -> Proto.is_refusal msg | _ -> false

(* ------------------------------------------------------------------ *)
(* Subscriber sessions                                                *)
(* ------------------------------------------------------------------ *)

type subscriber = {
  s_cfg : config;
  s_stream : string;
  s_pbio : Pbio.Receiver.t;
      (** one receiver for every connection: descriptors the relay
          replays after a reconnect are already learned, so learning
          them again is a no-op *)
  s_closed : bool Atomic.t;
  s_retry : Relay_client.retry;
  mutable s_conn : (Client.t * Endpoint.Receiver.t) option;
      (** the live connection and the endpoint reading its link *)
  mutable s_next : int;
      (** store offset of the next expected message frame; [-1] when
          the relay does not track offsets (memory-only) *)
  mutable s_schema : string;  (** the scoped schema served at subscribe *)
  mutable s_reconnects : int;
  mutable s_trace : Trace.ctx option;
      (** the stream's trace context as served by DESCRIBE at
          subscribe time ([want_trace] only) *)
}

let drop_subscriber_link (s : subscriber) =
  Option.iter (fun (c, _) -> Client.close c) s.s_conn;
  s.s_conn <- None

(** SUBSCRIBE on [client] from the next expected offset — the
    handshake of the first connection and of every reconnect. An
    overloaded relay refuses the [from=] replay with [busy]: wait it
    out on this connection. *)
let attach (s : subscriber) (client : Client.t) =
  let offset, schema, link =
    Relay_client.busy_wait s.s_retry
      ~what:(Printf.sprintf "subscriber %s" s.s_stream)
      ~on_busy:ignore
      (fun () ->
        Client.subscribe_from client ~stream:s.s_stream ~from:s.s_next)
  in
  s.s_conn <- Some (client, Endpoint.Receiver.of_pbio s.s_pbio link);
  (* a clamped offset (> the request) means retention outran this
     subscriber during an outage: the gap is unrecoverable and
     delivery resumes at the oldest retained event *)
  s.s_next <- Option.value offset ~default:(-1);
  schema

(* the first connection raises at once; the relay's [skip_until]
   filter makes a [from=] resubscribe duplicate-free *)
let subscribe ?(from = -1) ?(want_trace = false) (cfg : config)
    ~(stream : string) (abi : Omf_machine.Abi.t) : subscriber =
  let catalog = Catalog.create abi in
  let closed = Atomic.make false in
  let s =
    { s_cfg = cfg; s_stream = stream
    ; s_pbio =
        Pbio.Receiver.create
          (Catalog.registry catalog)
          (Omf_machine.Memory.create abi)
    ; s_closed = closed; s_retry = retry cfg ~stream closed
    ; s_conn = None; s_next = from; s_schema = ""
    ; s_reconnects = 0; s_trace = None }
  in
  s.s_schema <-
    dial cfg closed (fun client ->
        (* [want_trace]: learn the stream's trace context (PROTOCOLS.md
           §17) with a DESCRIBE on the still-roleless connection, before
           SUBSCRIBE pins it receive-only. Best-effort — a relay without
           tracing simply serves no [trace=] line. *)
        if want_trace then
          s.s_trace <-
            (match Client.describe client ~stream with
            | meta, _ -> fst (Proto.split_trace meta)
            | exception _ -> None);
        attach s client);
  ignore
    (Omf_xml2wire.Xml2wire.register_schema ~source:("relay:" ^ stream)
       catalog s.s_schema);
  s

let resubscribe (s : subscriber) : unit =
  Relay_client.reconnect s.s_retry
    ~what:(Printf.sprintf "subscriber %s" s.s_stream)
    (fun () ->
      dial ~reconnect:true s.s_cfg s.s_closed (fun c -> ignore (attach s c)));
  s.s_reconnects <- s.s_reconnects + 1;
  Log.info (fun m ->
      m "subscriber %s: resubscribed from offset %d (reconnect %d)"
        s.s_stream s.s_next s.s_reconnects)

let rec recv_subscriber (s : subscriber) : (Format.t * Value.t) option =
  if Atomic.get s.s_closed then None
  else
    match s.s_conn with
    | None -> (
      match resubscribe s with
      | () -> recv_subscriber s
      | exception Relay_client.Stopped -> None)
    | Some (_, endpoint) -> (
      match Endpoint.Receiver.recv_value endpoint with
      | Some _ as event ->
        if s.s_next >= 0 then s.s_next <- s.s_next + 1;
        event
      | None ->
        drop_subscriber_link s;
        recv_subscriber s
      | exception
          (Omf_util.Decode.Error
             { layer = "endpoint" | "descriptor" | "wire" | "ndr"; _ } as e) ->
        (* a resubscribe would be replayed the same frame; a link-layer
           fault (frame, mac, lz) is cured by a fresh connection *)
        drop_subscriber_link s;
        raise e
      | exception e when Atomic.get s.s_closed || Client.transient e ->
        drop_subscriber_link s;
        recv_subscriber s)

let subscriber_reconnects (s : subscriber) = s.s_reconnects
let subscriber_schema (s : subscriber) = s.s_schema
let subscriber_trace (s : subscriber) = s.s_trace

let subscriber_comp_totals (s : subscriber) =
  Option.bind s.s_conn (fun (c, _) -> Client.comp_totals c)

let subscriber_stats (s : subscriber) : Pbio.Receiver.stats =
  Pbio.Receiver.stats s.s_pbio

let close_subscriber (s : subscriber) : unit =
  Atomic.set s.s_closed true;
  drop_subscriber_link s

(* ------------------------------------------------------------------ *)
(* Publisher sessions                                                 *)
(* ------------------------------------------------------------------ *)

type pending = { p_fmt : Format.t; p_frame : Bytes.t; mutable p_seq : int }
(** [p_seq] is the store offset this frame occupies (ack mode only;
    renumbered when a reconnect learns the store regressed). *)

type publisher = {
  b_cfg : config;
  b_stream : string;
  b_schema : string;
  b_trace : Trace.ctx option;
      (** trace context re-attached to every PUBLISH, including the
          replayed one after a reconnect (PROTOCOLS.md §17) *)
  b_window : int;
  b_catalog : Catalog.t;
  b_mem : Omf_machine.Memory.t;
  b_closed : bool Atomic.t;
  b_retry : Relay_client.retry;
  b_buf : pending Queue.t;
      (** marshalled frames not yet written to the current link *)
  b_inflight : pending Queue.t;
      (** ack mode: frames written but not yet acknowledged durable —
          they stay here until the relay's ['k'] ack covers them, so
          a relay crash loses nothing *)
  mutable b_ack_mode : bool;
      (** publishing with [acks=1] against a store-backed relay *)
  mutable b_durable : int;  (** relay's durable watermark (ack mode) *)
  mutable b_next_seq : int;  (** store offset of the next new frame *)
  mutable b_conn : (Client.t * Link.t * Endpoint.Sender.t) option;
      (** the live connection, its link, and the sender announcing
          each format on it once *)
  mutable b_reconnects : int;
  mutable b_busy_waits : int;
      (** [busy]-triggered backoff sleeps (overload, not outage) *)
  b_mu : Mutex.t;
      (** held by every publish, flush and close, so a close from
          another thread never writes concurrently with them *)
}

(** Align the session with the watermark a resume handshake returned:
    frames the store already holds durably are retired, the surviving
    suffix is renumbered consecutively from the watermark (identity
    in the common case; a wiped store restarts numbering from its
    fresh tail) and will be resent. [None] means the relay is not
    store-backed — acks will never arrive, so the session degrades
    to plain fire-and-forget. *)
let resync_acked (p : publisher) (durable : int option) =
  (* every unacknowledged frame is resent on the fresh connection *)
  Queue.transfer p.b_buf p.b_inflight;
  Queue.transfer p.b_inflight p.b_buf;
  match durable with
  | None ->
    p.b_ack_mode <- false;
    Log.warn (fun m ->
        m "publisher %s: relay not store-backed; acks disabled" p.b_stream)
  | Some d ->
    p.b_durable <- d;
    let rec trim () =
      match Queue.peek_opt p.b_buf with
      | Some e when e.p_seq < d ->
        ignore (Queue.pop p.b_buf);
        trim ()
      | _ -> ()
    in
    trim ();
    let i = ref d in
    Queue.iter
      (fun e ->
        e.p_seq <- !i;
        incr i)
      p.b_buf;
    p.b_next_seq <- !i

(** The per-connection handshake, run on the first connection and
    replayed on every reconnect: ADVERTISE, then
    PUBLISH ([acks=1] in ack mode, the [b_trace] context when set).
    ADVERTISE is control traffic and always admitted; PUBLISH may be
    shed under overload — waited out on this connection. A fresh
    sender announces every format again on the new connection. *)
let handshake (p : publisher) (client : Client.t) =
  Client.advertise client ~stream:p.b_stream
    ~schema:p.b_schema;
  let w, link =
    Relay_client.busy_wait p.b_retry
      ~what:(Printf.sprintf "publisher %s" p.b_stream)
      ~on_busy:(fun () -> p.b_busy_waits <- p.b_busy_waits + 1)
      (fun () ->
        Relay_client.publish_link ?trace:p.b_trace ~acks:p.b_ack_mode client
          ~stream:p.b_stream)
  in
  p.b_conn <- Some (client, link, Endpoint.Sender.create link p.b_mem);
  if p.b_ack_mode then resync_acked p w

let publisher ?(window = 1024) ?(acked = false) ?trace (cfg : config)
    ~(stream : string) ~(schema : string) (abi : Omf_machine.Abi.t) :
    publisher =
  let closed = Atomic.make false in
  let p =
    { b_cfg = cfg; b_stream = stream; b_schema = schema
    ; b_trace = trace; b_window = window
    ; b_catalog = Catalog.create abi; b_mem = Omf_machine.Memory.create abi
    ; b_closed = closed; b_retry = retry cfg ~stream closed
    ; b_buf = Queue.create (); b_inflight = Queue.create ()
    ; b_ack_mode = acked; b_durable = 0; b_next_seq = 0
    ; b_conn = None; b_reconnects = 0; b_busy_waits = 0
    ; b_mu = Mutex.create () }
  in
  dial cfg closed (handshake p);
  ignore (Omf_xml2wire.Xml2wire.register_schema p.b_catalog schema);
  p

let publisher_format (p : publisher) (name : string) : Format.t option =
  Catalog.find_format p.b_catalog name

let publisher_reconnects (p : publisher) = p.b_reconnects
let publisher_busy_waits (p : publisher) = p.b_busy_waits

let publisher_buffered (p : publisher) =
  Queue.length p.b_buf + Queue.length p.b_inflight

let publisher_acked (p : publisher) = p.b_ack_mode
let publisher_durable (p : publisher) = p.b_durable

let drop_publisher_link (p : publisher) =
  Option.iter (fun (c, _, _) -> Client.close c) p.b_conn;
  p.b_conn <- None

(** Write buffered frames to the live link, announcing each format's
    descriptor first if this connection has not seen it. Ack mode
    moves each written frame to [b_inflight] until an ack covers it.
    [false] = the link broke (the unwritten tail stays buffered). *)
let try_flush (p : publisher) : bool =
  match p.b_conn with
  | None -> false
  | Some (_, link, sender) -> (
    try
      while not (Queue.is_empty p.b_buf) do
        let e = Queue.peek p.b_buf in
        Endpoint.Sender.announce sender e.p_fmt;
        Link.send link e.p_frame;
        ignore (Queue.pop p.b_buf);
        if p.b_ack_mode then Queue.add e p.b_inflight
      done;
      true
    with e when Client.transient e ->
      drop_publisher_link p;
      false)

(** An ack covering offsets below [n] retires the in-flight frames
    it covers. *)
let process_ack (p : publisher) (n : int) =
  if n > p.b_durable then p.b_durable <- n;
  let rec pop () =
    match Queue.peek_opt p.b_inflight with
    | Some e when e.p_seq < n ->
      ignore (Queue.pop p.b_inflight);
      pop ()
    | _ -> ()
  in
  pop ()

(** Blocking read of one frame from the publisher link — ['k'] acks
    retire buffered frames, ['e'] is a relay-reported error. [false]
    = the link is gone (dropped here on any transient failure). *)
let drain_ack (p : publisher) : bool =
  match p.b_conn with
  | None -> false
  | Some (_, link, _) -> (
    match Link.recv link with
    | Some frame -> (
      match Proto.decode_reply frame with
      | Ok (Proto.Ack n) ->
        process_ack p n;
        true
      | Ok (Proto.Err msg) -> raise (Client.Error msg)
      | Ok (Proto.Ok _ | Proto.Busy _) | Error _ -> true)
    | None ->
      drop_publisher_link p;
      false
    | exception e ->
      if Client.transient e then begin
        drop_publisher_link p;
        false
      end
      else raise e)

(** Bounded reconnect replaying {!handshake} (the relay may have
    restarted with no streams). [false] = budget exhausted or session
    closed; buffered frames are kept for the next attempt. A refusal
    ({!Relay_proto.is_refusal}: read-only, stale epoch, ...) is
    final: no fresh connection cures it, so it is raised. *)
let reconnect_publisher (p : publisher) : bool =
  match
    Relay_client.reconnect ~final:refused p.b_retry
      ~what:(Printf.sprintf "publisher %s" p.b_stream)
      (fun () -> dial ~reconnect:true p.b_cfg p.b_closed (handshake p))
  with
  | () ->
    p.b_reconnects <- p.b_reconnects + 1;
    Log.info (fun m ->
        m "publisher %s: reconnected (reconnect %d, %d frames buffered)"
          p.b_stream p.b_reconnects (publisher_buffered p));
    true
  | exception (Gave_up _ | Relay_client.Stopped) -> false

(** Ack mode: drain acks until [until ()] holds, reconnecting (three
    rounds at most) when the link breaks; [fail ()] is raised when
    the relay stays unreachable. *)
let await_acks (p : publisher) ~until ~fail =
  let rounds = ref 0 in
  while p.b_ack_mode && not (until ()) do
    if Option.is_none p.b_conn then begin
      if !rounds >= 3 || not (reconnect_publisher p) then raise (fail ());
      incr rounds
    end;
    ignore (try_flush p);
    if p.b_ack_mode && not (until ()) then ignore (drain_ack p)
  done

let publish_value (p : publisher) (fmt : Format.t) (v : Value.t) : unit =
  Mutex.protect p.b_mu @@ fun () ->
  if Atomic.get p.b_closed then
    raise (Client.Error "publisher session closed");
  if publisher_buffered p >= p.b_window then begin
    let full () =
      Overflow
        (Printf.sprintf
           "publisher %s: window (%d frames) full while the relay is \
            unreachable"
           p.b_stream p.b_window)
    in
    await_acks p
      ~until:(fun () -> publisher_buffered p < p.b_window)
      ~fail:full;
    if publisher_buffered p >= p.b_window then raise (full ())
  end;
  (* marshal under the lock: [b_mem] is the session's one scratch
     memory, shared by every publishing thread *)
  Omf_machine.Memory.reset p.b_mem;
  let msg =
    Pbio.message ~kind:Proto.frame_message p.b_mem fmt
      (Omf_pbio.Native.store p.b_mem fmt v)
  in
  let seq = p.b_next_seq in
  if p.b_ack_mode then p.b_next_seq <- seq + 1;
  (* the window keeps its frame: a copy of the lent message *)
  Queue.add { p_fmt = fmt; p_frame = Bytes.copy msg; p_seq = seq } p.b_buf;
  if not (try_flush p) then
    if reconnect_publisher p then ignore (try_flush p)

let flush_acked (p : publisher) : unit =
  Mutex.protect p.b_mu @@ fun () ->
  if not p.b_ack_mode then ignore (try_flush p)
  else
    await_acks p
      ~until:(fun () -> publisher_buffered p = 0)
      ~fail:(fun () ->
        Gave_up
          (Printf.sprintf
             "publisher %s: flush: relay unreachable with %d \
              unacknowledged frames"
             p.b_stream (publisher_buffered p)))

(* the flag is set before taking the lock, so a publish or flush in
   the reconnect loop on another thread gives up at its next check *)
let close_publisher (p : publisher) : unit =
  if not (Atomic.exchange p.b_closed true) then begin
    Mutex.protect p.b_mu @@ fun () ->
    ignore (try try_flush p with _ -> false);
    drop_publisher_link p
  end
