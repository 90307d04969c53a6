(** The networked event relay: the paper's event backbone (Figures
    1/3) served over real TCP by {!Omf_reactor.Reactor} event loops, one
    per shard.

    This is the repository's only publish/subscribe broker: daemons,
    benches, tests and in-process embeddings ({!start} on port 0) all
    go through it. Capture points and subscribers are separate
    processes; each shard keeps one record per stream it hosts — stream
    advertisement, descriptor caching with replay for late joiners,
    credential-scoped metadata (§4.4's format scoping, {!scope_policy}),
    publishers and subscribers — behind a small control protocol on the
    same length-prefixed framing as the {!Omf_transport.Endpoint} frames
    it relays verbatim.

    The control protocol — HELLO, ADVERTISE, PUBLISH, SUBSCRIBE, STATS,
    LIST, DESCRIBE, PROMOTE and their replies — is {!Relay_proto}
    (PROTOCOLS.md §11–18). After PUBLISH a connection's ['D']/['M']
    endpoint frames are fanned out; after SUBSCRIBE the connection is
    receive-only.

    Replication (PROTOCOLS.md §15): every advertised stream carries an
    [origin=relay-id]/[epoch=N] metadata tag. A stream whose origin is
    not the local relay is {e read-only} — only a replication link
    hosted in the relay with the matching tag ({!adopt_replica}, driven
    by {!Omf_mirror}) may append — until PROMOTE takes ownership with a
    bumped epoch. *)

(** What happens to a subscriber whose bounded outbound queue is full:

    - [Block]: stop reading from the stream's publishers until the
      queue drains — loss-free, TCP pushes back to the capture point;
    - [Drop_oldest]: shed the oldest queued data frame (descriptor
      frames are never shed, so the stream stays decodable);
    - [Evict_slow]: disconnect the laggard; others are unaffected. *)
type policy = Block | Drop_oldest | Evict_slow

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type scope_policy = (string * string) list -> string list option
(** Which fields of a stream's types a subscriber with these HELLO
    credentials may see ([None] = everything). A scoped subscriber is
    served the schema reduced to those fields, registers the reduced
    format, and NDR's match-by-name conversion drops the hidden fields
    on receive. *)

module Store = Omf_store.Store
(** Re-export of the durable stream store {!start}'s [?store]
    configures (see {!Omf_store.Store} and doc/STORE.md). *)

module Governor = Governor
(** Re-export of the per-shard resource governor {!start}'s
    [?governor] configures (see {!Governor} and doc/OVERLOAD.md). *)

module Trace = Omf_trace.Trace
(** Re-export of the sampled distributed-tracing substrate
    {!start}'s [?trace] configures (see {!Omf_trace.Trace}, doc/TRACE.md
    and PROTOCOLS.md §17). *)

(** {2 The relay}

    N shards (one by default) — one {!Omf_reactor.Reactor} loop per
    domain — behind a single acceptor thread that deals accepted sockets
    out round-robin. A stream is pinned to the shard that first
    ADVERTISEs it (or, with a store, the one its name hashes to at
    recovery); a connection landing on the wrong shard migrates there
    before taking a role, so every frame of a stream flows through
    exactly one loop and per-stream delivery order is total. *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?relay_id:string ->
  ?shards:int ->
  ?policy:policy ->
  ?max_queue:int ->
  ?evict_grace_s:float ->
  ?sndbuf:int ->
  ?auth_keys:(string * string) list ->
  ?mac_reject_limit:int ->
  ?drain_s:float ->
  ?governor:Governor.config ->
  ?ingress:float * float ->
  ?trace:Trace.settings ->
  ?store:Omf_store.Store.config ->
  unit ->
  t
(** Bind one listening socket (ephemeral port when [?port] is 0, the
    default) and run [?shards] (default 1) relay loops, each on its own
    domain; every argument below applies to every shard. Pair each
    [start] with {!stop}: live domains are a capped resource.

    [max_queue] bounds each subscriber's queued data frames
    (default 256); [evict_grace_s] (default 1.0) is how long a
    subscriber may stay continuously over that watermark before
    {!Evict_slow} disconnects it — a consumer that drains back below
    the watermark in time is spared, so momentary bursts never evict
    an actively reading subscriber; [sndbuf] forces a small
    [SO_SNDBUF] on accepted
    sockets (tests use this to provoke backpressure quickly);
    [auth_keys] is the [key-id -> secret] table for HMAC-authenticated
    framing (PROTOCOLS.md §12; empty = the mode is refused);
    [mac_reject_limit] (default 3) closes a connection after that many
    frames fail authentication;
    [drain_s] is the graceful-shutdown flush deadline (default 2s).

    [governor] arms overload control (doc/OVERLOAD.md): a per-shard
    byte budget over every queued outbound frame whose watermarks
    drive the [Healthy]/[Degraded]/[Overloaded] health machine —
    Degraded throttles stored replay and evicts slow consumers
    eagerly, Overloaded refuses PUBLISH and [from=] replays with a
    retryable ['b' "retry_ms=N"] reply while control traffic keeps
    flowing. Default: disabled ([budget = 0]). [ingress] is
    [(rate, burst)] for a per-connection token bucket on publisher
    data frames — a publisher exceeding [rate] frames/s (burst
    allowance [burst]) has its reads paused until its bucket refills.

    [trace] arms sampled end-to-end tracing (doc/TRACE.md,
    PROTOCOLS.md §17): each shard records per-stage spans —
    publish-admit, store-append, fanout-enqueue, flush, deliver — for
    sampled (or slow) frames into a fixed ring buffer, exposed via
    {!trace_spans} and the [stage_us.*] latency histograms in
    {!stats}. Default: disabled, and the frame path pays nothing.

    [store] makes the relay durable (doc/STORE.md): every published
    message frame is appended to a per-stream segmented log under the
    configured root before fan-out, [acks=1] publishers receive
    cumulative durability acks, [from=N] subscribers replay stored
    offsets, and at startup the relay recovers every stream found on
    disk — schemas re-advertised, descriptor caches rebuilt — so
    sessions survive a relay restart with no loss and no duplicates.
    Recovery runs before the shards start, each stream on the shard
    its name hashes to, so it is deterministic across restarts and
    every stream's store stays single-loop.

    [relay_id] is the replication identity stamped as [origin=] on
    locally advertised streams (PROTOCOLS.md §15). Unset, a
    store-backed relay mints one and persists it in [<root>/relay-id]
    (so a restart keeps owning its streams); a memory-only relay gets
    a fresh random id. *)

val port : t -> int
val shard_count : t -> int

val relay_id : t -> string
(** The replication identity ([origin=] tag) of this relay, shared by
    every shard. *)

val stats : t -> (string * int) list
(** Relay-wide counter totals (per-shard counters summed; includes
    [shard_handoffs], the connections migrated between loops), with
    every stream's gauges — [stream.<s>.published], [.subscribers],
    [.queue_depth] and [store.<s>.*] — as of its shard's last
    once-a-second gauge tick. A STATS reply carries the same list, with
    the answering shard's own streams read live. *)

val governor_used : t -> int
(** Bytes currently debited against the governors of every shard — by
    invariant, exactly the unwritten bytes across every connection's
    write queue (slice-length accounting; 0 when fully drained). Test
    hook for the debit/credit symmetry guarantee (doc/OVERLOAD.md). *)

val stopping : t -> bool
(** Has {!stop} begun? *)

val set_scope : t -> stream:string -> scope_policy -> unit
(** Install a credential scope policy on the shard hosting [stream],
    run on that shard's loop; returns once the policy is in place, so
    every later SUBSCRIBE and DESCRIBE sees it. A policy that leaves a
    type with no visible field makes those commands reply
    {!Relay_proto.access_denied}. Raises [Invalid_argument] if no shard
    hosts the stream, or once {!stop} has begun. *)

val trace_spans : t -> Trace.span list
(** Every shard's recorded trace spans, merged and ordered by start
    time; empty when tracing is disabled. Safe from any thread. *)

val stop : t -> unit
(** Unblock the acceptor, ask every shard to drain, then join the
    acceptor thread and every shard domain. *)

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

  val publish : ?trace:Trace.ctx -> t -> stream:string -> Omf_transport.Link.t
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

  val publish_acked :
    ?trace:Trace.ctx -> t -> stream:string -> int option * Omf_transport.Link.t
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

(** {2 Replication links}

    What {!Omf_mirror} drives (doc/MIRROR.md, PROTOCOLS.md §15). Each
    call runs on the loop of the shard hosting the stream and waits for
    it; each answers ["relay is shutting down"] once {!stop} has
    begun. *)

type replica = {
  stream : string;
  meta : (string * string) list;
      (** the source's DESCRIBE metadata, [trace=] stripped *)
  schema : string;
  trace : Trace.ctx option;  (** adopted when the shard traces *)
  on_frame : [ `Message | `Descriptor ] -> unit;
      (** a message frame replicated, or a descriptor new to the stream *)
  on_close : local:bool -> unit;
      (** the link closed; [~local:true] for the shard's own shutdown *)
}

val claim_replica : t -> replica -> (int, string) result
(** Advertise the stream as the source serves it (ADVERTISE's own
    arbitration) and run the write gate: not owned here, and the
    recorded tag is the source's. [Ok] is the offset to subscribe the
    source from: the local store tail, [-1] memory-only. *)

val adopt_replica : t -> replica -> Client.t -> (unit, string) result
(** Hand a claimed link's source connection, already subscribed, to
    the hosting shard, which re-runs the write gate. [Ok]: the shard
    owns the socket and its negotiated frame modes, takes its frames
    down the publisher path, and calls [on_close] once; a frame failing
    authentication or decompression, or any control frame, closes it.
    [Error]: the client is closed. *)

val unlink_replica : t -> replica -> unit
(** Close the link {!adopt_replica} made for this record, if live. *)

val promote_stream : t -> stream:string -> (int, string) result
(** PROMOTE in process: fsync the stream's store, then take ownership;
    the epoch after the call. *)

val store_tail : t -> stream:string -> int option

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
    instead of killing the endpoint. Subscribers replay SUBSCRIBE and
    dedupe the relay's descriptor replay by content digest; publishers
    replay ADVERTISE/PUBLISH, re-announce descriptors per connection,
    and buffer a bounded in-flight window of data frames during the
    outage.

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
    ?jitter_seed:int64 ->
    port:int ->
    unit ->
    config
  (** [max_attempts] (default 10) bounds reconnect attempts per outage;
      the first dials at once, attempt [k >= 1] first sleeps
      [min(max_delay_s, base_delay_s * 2^(k-1))] scaled by full jitter
      into [[0.5, 1.0)] of itself (defaults 0.05s/2.0s, deterministic
      under [jitter_seed]). [auth], [compress] (offered
      on every reconnect, renegotiated per connection),
      [connect_timeout_s] (default 5s) and [io_timeout_s] as for
      {!Client.connect}; reconnect HELLOs carry an extra
      [omf-reconnect] credential so relay STATS expose churn
      ([reconnects_accepted]). *)

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
      Replayed descriptor frames already learned are skipped, so a
      relay restart delivers no duplicate registrations. [None] only
      after {!close_subscriber} — also when closed from another thread
      mid-outage; raises {!Gave_up} when an outage outlives the budget
      and {!Client.Busy} when a resubscribe stays shed. *)

  val subscriber_reconnects : subscriber -> int

  val subscriber_trace : subscriber -> Trace.ctx option
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
    ?trace:Trace.ctx ->
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
      first on each connection. During an outage the frame is buffered
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
