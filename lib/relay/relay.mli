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
(** Re-export of the durable stream store {!listen}'s [?store]
    configures (see {!Omf_store.Store} and doc/STORE.md). *)

module Governor = Governor
(** Re-export of the per-shard resource governor {!listen}'s
    [?governor] configures (see {!Governor} and doc/OVERLOAD.md). *)

module Trace = Omf_trace.Trace
(** Re-export of the sampled distributed-tracing substrate
    {!listen}'s [?trace] configures (see {!Omf_trace.Trace}, doc/TRACE.md
    and PROTOCOLS.md §17). *)

(** {2 The relay}

    N shards (one by default), one {!Omf_reactor.Reactor} loop each.
    Shard 0's loop accepts on the listener and deals the accepted
    sockets out round-robin. A stream is pinned to the shard that first
    ADVERTISEs it (or, with a store, the one its name hashes to at
    recovery); a connection landing on the wrong shard migrates there
    before taking a role, so every frame of a stream flows through
    exactly one loop and per-stream delivery order is total. *)

type t

val listen :
  ?host:string ->
  ?port:int ->
  ?relay_id:string ->
  ?shards:int ->
  ?policy:policy ->
  ?max_queue:int ->
  ?evict_grace_s:float ->
  ?sndbuf:int ->
  ?auth_keys:(string * string) list ->
  ?drain_s:float ->
  ?governor:Governor.config ->
  ?ingress:float * float ->
  ?trace:Trace.settings ->
  ?store:Omf_store.Store.config ->
  unit ->
  t
(** Bind one listening socket (ephemeral port when [?port] is 0, the
    default), recover the stored streams and run shards 1..[shards]-1
    ([shards] defaults to 1; below 1 raises [Invalid_argument]), each on
    its own domain. Nothing is accepted until shard 0 runs: {!run} runs
    it on the calling thread, {!start} on a new domain. Every argument
    below applies to every shard. Pair each relay with {!stop}: live
    domains are a capped resource.

    [max_queue] bounds each subscriber's queued data frames
    (default 256); [evict_grace_s] (default 1.0) is how long a
    subscriber may stay continuously over that watermark before
    {!Evict_slow} disconnects it — a consumer that drains back below
    the watermark in time is spared, so momentary bursts never evict
    an actively reading subscriber; [sndbuf] forces a small
    [SO_SNDBUF] on accepted
    sockets (tests use this to provoke backpressure quickly);
    [auth_keys] is the [key-id -> secret] table for HMAC-authenticated
    framing (PROTOCOLS.md §12; empty = the mode is refused; a
    connection is closed once 3 of its frames fail authentication);
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

val start : t -> t
(** Run shard 0 of a relay from {!listen} on a new domain, and return
    the relay: [start (listen ())] is an in-process relay on an
    ephemeral port. {!stop} joins that domain too. *)

val run : t -> unit
(** Run shard 0's loop, which accepts for every shard, on the calling
    thread until {!stop} has drained it. Call it once, on a relay from
    {!listen}; {!stop}, called from another thread, waits for it. A
    thread that shares its domain with others competes with them for
    the runtime lock, so give the loop a domain of its own (relayd runs
    it on its main thread, which does nothing else). *)

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
    once-a-second gauge tick. A STATS reply is the same snapshot, taken
    once the answering shard has written its own gauges. *)

val governor_used : t -> int
(** The unwritten bytes queued on every shard's loop
    ({!Omf_reactor.Reactor.queued_bytes}), which is what the shards'
    governors count (doc/OVERLOAD.md); 0 when fully drained. *)

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
(** Close the listener (on shard 0's loop), ask every shard to drain,
    wait until every loop has exited, then join the shards' domains.
    Idempotent. *)

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

val adopt_replica :
  t ->
  replica ->
  Unix.file_descr ->
  mac:Omf_transport.Macframe.state option ->
  comp:bool ->
  (unit, string) result
(** Hand a claimed link's source connection, already subscribed, to
    the hosting shard, which re-runs the write gate: the socket, its
    authentication state and whether it negotiated [comp=lz]. [Ok]:
    the shard owns the socket, takes its frames down the publisher
    path, and calls [on_close] once; a frame failing authentication or
    decompression, or any control frame, closes it. [Error]: nothing
    was taken — the caller still owns the socket and closes it. *)

val unlink_replica : t -> replica -> unit
(** Close the link {!adopt_replica} made for this record, if live. *)

val promote_stream : t -> stream:string -> (int, string) result
(** PROMOTE in process: fsync the stream's store, then take ownership;
    the epoch after the call. *)

val store_tail : t -> stream:string -> int option

(** {2 Clients} *)

module Client = Relay_client.Client
(** The raw client ({!Relay_client.Client}), which the mirror runs in
    process. The Pbio-typed consumer and sessions are {!Relay_session},
    which a relay never links (doc/REACTOR.md §8). *)
