(** The raw client of the relay ({!Relay}, PROTOCOLS.md §11–18): one
    connection, its HELLO, and a typed reading of each command's
    reply. It carries endpoint frames without decoding them, so a
    program that only moves frames (relayd's mirror) links none of the
    paper's binding stack. {!Relay} re-exports {!Client}, so
    [Relay.Client] names the same module. The one retry driver, which
    reconnects and waits out [busy] replies for the relay's sessions
    and the mirror's links alike, is here too. The Pbio-typed sessions
    are {!Relay_session}. *)

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
      a fresh connection may cure? The predicate {!reconnect} retries
      on. *)

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
      send/receive deadlines. Without [io_timeout_s] the HELLO exchange
      still gives up after 5 s, and later operations have no
      deadline. Every failure — unreachable port,
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
      content [fingerprint] — that {!describe} returns so receivers
      can bind conversion plans by fingerprint; or, from a
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

val publish_link :
  ?trace:Omf_trace.Trace.ctx ->
  acks:bool ->
  Client.t ->
  stream:string ->
  int option * Omf_transport.Link.t
(** PUBLISH with or without durability acks, and with a trace context:
    {!Client.publish} and {!Client.publish_acked} in one, for the
    publisher sessions of {!Relay_session}. *)

(** {2 Retry driver}

    The one reconnect and [busy] policy, run by the sessions of
    {!Relay_session} and by the mirror's links. *)

exception Gave_up of string
(** Every attempt of one outage failed. *)

exception Stopped
(** The caller's stop flag held before a dial or after a wait. *)

val nap : stopped:(unit -> bool) -> float -> unit
(** Sleep that many seconds in steps of at most 50 ms, returning once
    [stopped ()] holds. *)

type retry

val retry :
  attempts:int ->
  base_s:float ->
  max_s:float ->
  seed:int64 ->
  stopped:(unit -> bool) ->
  sleep:(float -> unit) ->
  retry
(** A budget of [attempts] dials per outage. Backoff step [k]
    (0-based) is [min(max_s, base_s * 2^k)] scaled by full jitter into
    [[0.5, 1.0)] of itself, from a generator seeded with [seed]. Every
    wait calls [sleep]: {!nap} over [stopped] in every program. *)

val reconnect :
  ?final:(exn -> bool) -> retry -> what:string -> (unit -> 'a) -> 'a
(** [reconnect r ~what dial] runs [dial] (a fresh connection and the
    caller's handshake on it, closed by [dial] if it fails) until it
    returns: attempt 0 at once, attempt [k] after backoff step [k - 1].
    A {!Client.transient} failure is retried unless [final] holds for
    it; any other is raised. After [attempts] failed dials it raises
    {!Gave_up}, naming [what] and the last failure. *)

val busy_wait :
  retry -> what:string -> on_busy:(unit -> unit) -> (unit -> 'a) -> 'a
(** Run [f] on the same connection until it does not raise
    {!Client.Busy} (PROTOCOLS.md §16), waiting out each reply's
    [retry_ms] hint scaled by full jitter and counting it with
    [on_busy]. Overload is not an outage: the wait spends no budget and
    never becomes {!Gave_up}; only {!Stopped} ends it. *)
