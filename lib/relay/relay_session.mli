(** The Pbio-typed clients of the relay ({!Relay}), built on the raw
    {!Relay_client.Client}: fault-tolerant publisher and subscriber
    sessions. A subscriber session is the one Pbio consumer of a relay
    stream.

    Every one negotiates formats the one way the paper's endpoint
    protocol describes ({!Omf_transport.Endpoint}): a sender announces
    each format's descriptor once per connection, and a receiver learns
    it once and converts every message after. A program that only
    relays frames links none of this (doc/REACTOR.md §8).

    A dropped TCP connection degrades to a bounded retry loop
    (exponential backoff + jitter) instead of killing the endpoint.
    Subscribers replay SUBSCRIBE into one receiver, which ignores the
    relay's replay of descriptors it already learned; publishers replay
    ADVERTISE/PUBLISH, re-announce descriptors per connection, and
    buffer a bounded in-flight window of data frames during the
    outage. The loop is the one retry driver the mirror's links run
    too ({!Relay_client.reconnect}).

    A [busy] reply (PROTOCOLS.md §16) is waited out on the same
    connection after the relay's hint ({!Relay_client.busy_wait}), for
    as long as the relay sends it: overload spends no reconnect budget
    and is never reported as {!Gave_up}. Closing a session stops its
    retry loops and waits: the flag is checked before each attempt and
    at least every 50 ms of a wait, and a connection won after the
    close is closed at once. The first handshake waits [busy] out too,
    inside {!publisher} or {!subscribe}, before the caller holds a
    session to close: against a relay that sheds for good they do not
    return until it closes the connection. *)

exception Gave_up of string
(** The reconnect budget for one outage was exhausted
    ({!Relay_client.Gave_up}). *)

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
  port:int ->
  unit ->
  config
(** Sessions with the relay on [host:port] ([host] defaults to
    [127.0.0.1]). [max_attempts] (default 10) bounds reconnect attempts
    per outage; the first dials at once, attempt [k >= 1] first sleeps
    backoff step [k - 1] (defaults 0.05s/2.0s; {!Relay_client.retry}).
    Each session seeds its own jitter from its stream and a count of
    the process's sessions, so sessions that lose one relay together
    do not retry in lockstep.
    [max_attempts = 0] never reconnects: the first outage raises
    {!Gave_up}. [creds], [auth], [compress] and [connect_timeout_s]
    (default 5s) as for {!Relay_client.Client.connect}: every HELLO
    carries [creds] (the relay's scoping input), and a reconnect HELLO
    adds an [omf-reconnect] credential so relay STATS expose churn
    ([reconnects_accepted]). After the HELLO a connection's operations
    have no deadline: a quiet stream is not an outage. *)

(** {2 Subscriber sessions} *)

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
    configuration error, not an outage); a [busy] reply to a [from=]
    replay is waited out on the connection, for as long as the relay
    sheds.

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
    nothing ([formats_learned] stays). A frame whose content fails to
    decode (layer ["endpoint"], ["descriptor"], ["wire"] or ["ndr"])
    drops the link and raises its [Omf_util.Decode.Error]: the relay
    replays its cached descriptors to every joiner, so a resubscribe
    would meet the frame again. A link-layer fault (layer ["frame"],
    ["mac"] or ["lz"]) is an outage like any other: a fresh connection
    renegotiates the link. [None] only after {!close_subscriber}
    — also when closed from another thread mid-outage; raises
    {!Gave_up} when an outage outlives the budget. *)

val subscriber_reconnects : subscriber -> int
(** Times the session resubscribed after an outage. *)

val subscriber_schema : subscriber -> string
(** The (credential-scoped) schema the relay served at subscribe time. *)

val subscriber_comp_totals : subscriber -> (int * int) option
(** {!Relay_client.Client.comp_totals} of the live connection: [None]
    when it is uncompressed, or between an outage and its reconnect. *)

val subscriber_trace : subscriber -> Omf_trace.Trace.ctx option
(** The stream's trace context as served at subscribe time; [None]
    unless the session was opened with [~want_trace:true] against a
    tracing-enabled relay. *)

val subscriber_stats : subscriber -> Omf_pbio.Pbio.Receiver.stats
val close_subscriber : subscriber -> unit
(** Close the session; safe from another thread: a receive blocked on
    the link or in the reconnect loop returns [None]. *)

(** {2 Publisher sessions} *)

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
    failures raise immediately, and a [busy] PUBLISH reply is waited
    out on the connection for as long as the relay sheds. [window] (default 1024) bounds data
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
    event is marshalled under the session's lock. During an outage the
    frame is buffered and reconnection attempted under the budget; a
    full window raises {!Overflow}, an exhausted budget returns with
    the frame buffered for the next call. With [max_attempts = 0] the session never
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
