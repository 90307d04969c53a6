(** Clients of the relay ({!Relay}, PROTOCOLS.md §11–18): the blocking
    {!Client}, a fully wired consumer, and fault-tolerant {!Session}s.

    Every client negotiates formats the one way the paper's endpoint
    protocol describes ({!Omf_transport.Endpoint}): a sender announces
    each format's descriptor once per connection, and a receiver learns
    it once and converts every message after. {!Relay} re-exports this
    module, so [Relay.Client], [Relay.Session] and
    [Relay.attach_consumer] name the same values. *)

(** {2 Client} *)

(** Blocking client. One connection carries one role: after
    {!Client.publish} the link is an {!Omf_transport.Endpoint.Sender}
    channel; after {!Client.subscribe} it is receive-only. *)
module Client : sig
  exception Error of string
  (** An ['e'] reply from the relay, or a malformed exchange. *)

  exception Busy of { retry_ms : int }
  (** A ['b' "retry_ms=N"] reply (PROTOCOLS.md §16): the relay is
      overloaded and refused the request {e retryably} — the
      connection is still good; retry the same request after roughly
      [retry_ms] milliseconds. Distinct from {!Error} so callers never
      confuse shed load with rejection or disconnection. *)

  val transient : exn -> bool
  (** Is this exception a broken or unusable connection — {!Error} or
      a transport failure ({!Omf_transport.Tcp.failure_message}) — that
      a fresh connection may cure? The predicate {!Session}'s reconnect
      loops retry on. *)

  type t

  val connect :
    ?host:string ->
    port:int ->
    ?creds:(string * string) list ->
    ?auth:string * string ->
    ?compress:bool ->
    ?connect_timeout_s:float ->
    ?io_timeout_s:float ->
    unit ->
    t
  (** Dial [host] ({!Omf_transport.Tcp.dial}: a dotted quad or a
      name) and HELLO with [creds] (the relay's scoping input).
      [?auth:(key_id, secret)] negotiates HMAC-authenticated framing
      (PROTOCOLS.md §12): the HELLO exchange is plaintext, every later
      frame in both directions is sealed; {!Error} if the relay refuses.
      [~compress:true] offers [comp=lz] (PROTOCOLS.md §18,
      doc/COMPRESS.md): if the relay echoes the capability in its
      banner, every later frame in both directions travels as one LZ
      block (composed inside authentication: seal-of-compressed); a
      relay that doesn't speak it simply leaves the connection
      uncompressed — check {!compressed}. [connect_timeout_s] bounds
      connection establishment and [io_timeout_s] arms per-operation
      send/receive deadlines. Every failure — unreachable port,
      handshake timeout, an ['e'] reply — raises {!Error} with a
      readable reason (never a raw [Unix.Unix_error]) and closes the
      socket. *)

  val compressed : t -> bool
  (** Did the relay grant [comp=lz]? Always [false] without
      [~compress:true]. *)

  val fd : t -> Unix.file_descr
  val mac : t -> Omf_transport.Macframe.state option
  (** The socket and its authentication state, with {!compressed} the
      modes {!Relay.adopt_replica} takes to host the connection. *)

  val comp_totals : t -> (int * int) option
  (** [(raw_bytes, wire_bytes)] through the compressed link in both
      directions — the achieved ratio is [raw / wire]. [None] when the
      connection is uncompressed. *)

  val rpc : t -> Relay_proto.request -> Relay_proto.reply
  (** One control exchange: send the request, return the relay's reply
      as is — [Err] and [Busy] included. Transport failures and an
      unreadable reply raise {!Error}. The functions below are [rpc]
      plus the typed reading of each command's reply. *)

  val advertise :
    ?meta:(string * string) list -> t -> stream:string -> schema:string -> unit
  (** [meta] lines ride along as advertisement metadata: a
      schema-registry binding (PROTOCOLS.md §14) — [subject], [version],
      content [fingerprint] — that {!subscribe_meta} returns so
      receivers can bind conversion plans by fingerprint; or, from a
      mirror, the source's metadata verbatim with its [origin]/[epoch]
      tag (§15), which the relay gates: stale epochs and origin loops
      are refused with an ['e'] reply. *)

  val publish : ?trace:Omf_trace.Trace.ctx -> t -> stream:string -> Omf_transport.Link.t
  (** [?trace] attaches a trace context (PROTOCOLS.md §17) as a
      [trace=] PUBLISH option: a tracing-enabled relay adopts it —
      spans carry the caller's trace/span ids — instead of
      head-sampling its own. Ignored by a relay without tracing. *)

  val subscribe : t -> stream:string -> string * Omf_transport.Link.t
  (** The (credential-scoped) stream schema, and the raw link now
      carrying descriptor/message frames. *)

  val subscribe_meta :
    t ->
    stream:string ->
    (string * string) list * string * Omf_transport.Link.t
  (** As {!subscribe}, also returning the stream's advertised
      registry-binding metadata ([subject] / [version] /
      [fingerprint]); empty when the advertiser supplied none. *)

  val publish_acked : t -> stream:string -> int option * Omf_transport.Link.t
  (** Publisher mode with durability acks (PROTOCOLS.md §13): against
      a store-backed relay returns [Some durable] — the stream's
      durable watermark, which is also the store offset the next
      message frame sent on the link will occupy — and the relay sends
      a ['k' durable] frame on the link whenever the watermark
      advances. [None]: the relay is memory-only and never acks. *)

  val subscribe_from :
    t -> stream:string -> from:int -> int option * string * Omf_transport.Link.t
  (** Subscribe with stored replay: delivery starts at store offset
      [from] (clamped up past retention), or at the live tail when
      [from] is negative. [Some start] is the offset of the first
      message frame the link carries; [None] when the relay is
      memory-only (delivery is live-tail, as {!subscribe}). *)

  val list_streams : t -> string list
  (** Every stream the relay (all of its shards) currently hosts —
      advertised or recovered from its store — sorted. *)

  val describe : t -> stream:string -> (string * string) list * string
  (** The stream's advertisement metadata — always including its
      [origin]/[epoch] replication tag (PROTOCOLS.md §15) — and its
      (credential-scoped) schema. Does not change the connection's
      role, so one connection can describe many streams. *)

  val promote : t -> stream:string -> int
  (** Transfer write ownership of a mirrored stream to the relay: it
      fsyncs the stream's store, then its origin becomes the relay's
      id with a bumped epoch (returned).
      Idempotent on streams the relay already owns. Live mirror links
      into the stream are disconnected so their epoch check re-runs. *)

  val stats : t -> (string * int) list
  val close : t -> unit
end

(** {2 A fully wired remote consumer} *)

type consumer = {
  client : Client.t;
  catalog : Omf_xml2wire.Catalog.t;
  endpoint : Omf_transport.Endpoint.Receiver.t;
  schema : string;  (** the scoped schema the relay served *)
}

val attach_consumer :
  ?host:string ->
  port:int ->
  ?creds:(string * string) list ->
  ?auth:string * string ->
  ?compress:bool ->
  stream:string ->
  Omf_machine.Abi.t ->
  consumer
(** Connect, subscribe, register the served (scoped) schema in a fresh
    catalog for the ABI, and wrap the link in an endpoint receiver. *)

val recv : consumer -> (Omf_pbio.Format.t * Omf_pbio.Value.t) option
(** Blocking receive of the next decoded event ([None] = stream end). *)

val close_consumer : consumer -> unit

(** {2 Fault-tolerant sessions} *)

(** {!Client} plus automatic reconnect/replay: a dropped TCP connection
    degrades to a bounded retry loop (exponential backoff + jitter)
    instead of killing the endpoint. Subscribers replay SUBSCRIBE into
    one receiver, which ignores the relay's replay of descriptors it
    already learned; publishers replay ADVERTISE/PUBLISH, re-announce
    descriptors per connection, and buffer a bounded in-flight window
    of data frames during the outage.

    A [busy] reply (PROTOCOLS.md §16) is retried on the same connection
    after the relay's hint; after [max_attempts] of them the last
    {!Client.Busy} is raised — overload is never reported as
    {!Gave_up}. Closing a session stops its retry loops: the flag is
    checked before each attempt and after each sleep, and a connection
    won after the close is closed at once. *)
module Session : sig
  exception Gave_up of string
  (** The reconnect budget for one outage was exhausted. *)

  exception Overflow of string
  (** The publisher's bounded in-flight window is full while the relay
      is unreachable (the offending event is {e not} enqueued). *)

  type config

  val config :
    ?host:string ->
    ?creds:(string * string) list ->
    ?auth:string * string ->
    ?compress:bool ->
    ?max_attempts:int ->
    ?base_delay_s:float ->
    ?max_delay_s:float ->
    ?connect_timeout_s:float ->
    ?io_timeout_s:float ->
    port:int ->
    unit ->
    config
  (** [max_attempts] (default 10) bounds reconnect attempts per outage;
      the first dials at once, attempt [k >= 1] first sleeps
      {!backoff_delay} step [k - 1] (defaults 0.05s/2.0s; the jitter
      comes from a fixed seed, so it is deterministic). [auth],
      [compress] (offered on every reconnect, renegotiated per
      connection),
      [connect_timeout_s] (default 5s) and [io_timeout_s] as for
      {!Client.connect}; reconnect HELLOs carry an extra
      [omf-reconnect] credential so relay STATS expose churn
      ([reconnects_accepted]). *)

  val backoff_delay :
    base_s:float -> max_s:float -> Omf_util.Prng.t -> int -> float
  (** Backoff step [k] (0-based) of every reconnect loop, the mirror's
      links included: [min(max_s, base_s * 2^k)] scaled by full jitter
      into [[0.5, 1.0)] of itself, drawn from the generator. *)

  (** {3 Subscriber sessions} *)

  type subscriber

  val subscribe :
    ?from:int ->
    ?want_trace:bool ->
    config ->
    stream:string ->
    Omf_machine.Abi.t ->
    subscriber
  (** Connect and subscribe. Failures on this first attempt raise
      immediately (an unknown stream at session start is a
      configuration error, not an outage).

      With [~want_trace:true] the session first DESCRIBEs the stream
      and remembers its [trace=] context, if the relay serves one
      (PROTOCOLS.md §17) — see {!subscriber_trace}.

      Against a store-backed relay, [from] is the store offset to
      start at: [-1] (the default) for the live tail, [0] for the
      oldest retained event. The session counts delivered message
      frames and resubscribes with the next expected offset, so a
      relay restart replays exactly the missed suffix — no event lost,
      none duplicated. Against a memory-only relay [from] is ignored
      and resubscribes are tail-only. *)

  val recv_subscriber :
    subscriber -> (Omf_pbio.Format.t * Omf_pbio.Value.t) option
  (** Blocking receive of the next event, decoded into the subscriber's
      ABI, transparently reconnecting and resubscribing across outages.
      A replayed descriptor the session already learned changes
      nothing ([formats_learned] stays). A garbage frame ends the
      link like an outage does: the session resubscribes. [None] only
      after {!close_subscriber} — also when closed from another thread
      mid-outage; raises {!Gave_up} when an outage outlives the budget
      and {!Client.Busy} when a resubscribe stays shed. *)

  val subscriber_reconnects : subscriber -> int

  val subscriber_trace : subscriber -> Omf_trace.Trace.ctx option
  (** The stream's trace context as served at subscribe time; [None]
      unless the session was opened with [~want_trace:true] against a
      tracing-enabled relay. *)

  val subscriber_stats : subscriber -> Omf_pbio.Pbio.Receiver.stats
  val close_subscriber : subscriber -> unit
  (** Close the session; safe from another thread: a receive blocked on
      the link or in the reconnect loop returns [None]. *)

  (** {3 Publisher sessions} *)

  type publisher

  val publisher :
    ?window:int ->
    ?acked:bool ->
    ?trace:Omf_trace.Trace.ctx ->
    config ->
    stream:string ->
    schema:string ->
    Omf_machine.Abi.t ->
    publisher
  (** Connect, ADVERTISE and enter publisher mode; first-attempt
      failures raise immediately. [window] (default 1024) bounds data
      frames buffered while the relay is unreachable. [trace] is
      attached to every PUBLISH — including the replayed one after a
      reconnect — so the stream keeps one trace context across
      outages (PROTOCOLS.md §17).

      With [~acked:true] (and a store-backed relay) frames stay
      buffered until the relay acknowledges them durable: a relay
      killed mid-publish loses nothing — the resume handshake tells
      the session exactly which suffix the store is missing, and it is
      resent with no duplicates. [window] then bounds
      {e unacknowledged} frames and a full window blocks on the ack
      channel rather than raising {!Overflow}. Against a memory-only
      relay the mode degrades to the plain session.

      The whole handshake is replayed on every reconnect; a refusal
      there ({!Relay_proto.is_refusal}, e.g. a read-only stream) is
      raised, not retried. *)

  val publisher_format : publisher -> string -> Omf_pbio.Format.t option
  (** Look up a format from the advertised schema by name. *)

  val publish_value :
    publisher -> Omf_pbio.Format.t -> Omf_pbio.Value.t -> unit
  (** Marshal one event and ship it, announcing the format's descriptor
      first on each connection. Threads may share a publisher: the
      event is marshalled under the session's lock. During an outage the frame is buffered
      and reconnection attempted under the budget; a full window raises
      {!Overflow}, an exhausted budget returns with the frame buffered
      for the next call. With [max_attempts = 0] the session never
      reconnects — frames accumulate until {!Overflow}. *)

  val publisher_reconnects : publisher -> int

  val publisher_busy_waits : publisher -> int
  (** Times a PUBLISH was answered [busy] and retried after the
      relay's backoff hint (jittered), on the same connection — the
      graceful-degradation path: an overloaded relay slows this
      session down instead of disconnecting it. *)

  val publisher_buffered : publisher -> int
  (** Frames currently buffered: awaiting a live connection (plain
      mode) or awaiting a durability ack (ack mode). *)

  val publisher_acked : publisher -> bool
  (** Is the session publishing with durability acks? ([false] after
      degrading against a memory-only relay.) *)

  val publisher_durable : publisher -> int
  (** The relay's durable watermark as of the last ack (ack mode). *)

  val flush_acked : publisher -> unit
  (** Block until every buffered frame is acknowledged durable (ack
      mode) or written (plain mode), reconnecting under the budget;
      {!Gave_up} when the relay stays unreachable. *)

  val close_publisher : publisher -> unit
  (** Flush buffered frames best-effort (no reconnect), then close —
      call {!flush_acked} first for a durable handoff. Safe from
      another thread: a publish or flush in the reconnect loop returns
      at its next check. *)
end
