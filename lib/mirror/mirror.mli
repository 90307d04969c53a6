(** Relay-to-relay stream replication with failover (doc/MIRROR.md,
    PROTOCOLS.md §15).

    A mirror keeps a local relay a live replica of a source relay. Its
    manager lists the source's streams and DESCRIBEs each one it wants;
    per stream it then runs one link made of two
    {!Omf_relay.Relay.Session}s: a subscriber on the source feeding an
    acked [mirror=1] publisher on the local relay. The publisher
    re-advertises the source's metadata verbatim (registry binding plus
    the [origin]/[epoch] replication tag) and is the only writer a
    foreign-origin (read-only) stream admits. Its acked handshake syncs
    the local store, so the durable watermark it returns is the local
    tail: the source offset the subscriber starts from. Store offsets
    thus stay aligned end to end, and consumers fail over with their
    ordinary Session resume path: resubscribe against the mirror at the
    next expected offset.

    Loop prevention is origin-tagged: streams whose origin is the
    local relay are skipped at DESCRIBE time, and the relay's gates
    refuse stale epochs and a relay's own adverts arriving around a
    cycle — an A<->B pair replicates each stream exactly once, in one
    direction, with no frame amplification.

    Each side of a link reconnects on its own under Session's jittered
    backoff budget and replays its handshake; a failed handshake is
    retried every [max_delay_s], [max_attempts] times in a row. Once a
    budget is spent ({!Omf_relay.Relay.Session.Gave_up}) the mirror
    asks the source once more (DESCRIBE, then a bare TCP connect): if
    it still answers, the link parks until the next rescan (an error
    answer counts [links_refused]). Only an unreachable source — the
    TCP connect fails — is lost; with [promote_on_loss] its stream is
    then promoted locally (ownership transfers at a bumped epoch) so
    publishers and consumers carry on against the replica. A refusal
    also parks the link. A [busy] reply from either relay pauses the
    link for the relay's hint and spends no budget.

    A link holds at most 8192 frames unacknowledged by the local
    relay, whose acks follow its store's fsync: a link carries at most
    8192 frames per local fsync interval (doc/MIRROR.md §4). *)

type config = {
  source_host : string;
  source_port : int;
  local_host : string;
  local_port : int;
  local_relay_id : string;
      (** the local relay's identity ({!Omf_relay.Relay.relay_id}) —
          the loop guard: source streams with this origin are our own *)
  globs : string list;
      (** replicate only matching streams (['*'] wildcards); [[]] =
          all *)
  rescan_s : float;  (** manager period: discovery + lag gauges *)
  max_attempts : int;
      (** each Session's reconnect budget per outage: exhausted on the
          source, the source is lost *)
  base_delay_s : float;
  max_delay_s : float;  (** Session backoff: first step and cap *)
  promote_on_loss : bool;
  source_auth : (string * string) option;
  local_auth : (string * string) option;
  compress : bool;
      (** offer [comp=lz] on both legs of every replication link
          (doc/COMPRESS.md, PROTOCOLS.md §18); a source or local relay
          that does not speak compression negotiates down to plain
          frames, so the flag is safe against old peers *)
  io_timeout_s : float;
      (** connect deadline on every connection, and the per-operation
          deadline on the local leg and the manager's; the source leg
          has no read deadline, so an idle link stays up *)
  trace : Omf_trace.Trace.settings option;
      (** record [mirror_replicate] spans and carry the source
          stream's trace context across relays (doc/TRACE.md,
          PROTOCOLS.md §17); [None] = tracing off *)
}

val config :
  ?globs:string list ->
  ?rescan_s:float ->
  ?max_attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?promote_on_loss:bool ->
  ?source_auth:string * string ->
  ?local_auth:string * string ->
  ?compress:bool ->
  ?io_timeout_s:float ->
  ?trace:Omf_trace.Trace.settings ->
  ?local_host:string ->
  source_host:string ->
  source_port:int ->
  local_port:int ->
  local_relay_id:string ->
  unit ->
  config
(** Defaults: every stream, rescan every 1s, 8 reconnect attempts per
    outage before the source is declared lost (jittered backoff
    0.05s..1s), no promote-on-loss, 0.5s deadline. *)

type t

val start : config -> t
(** Launch the manager thread: it discovers source streams (LIST +
    globs) every [rescan_s], runs one replication-link thread per
    stream, and refreshes per-stream [mirror.<stream>.lag_frames]
    gauges (source tail minus local tail). *)

val stop : t -> unit
(** Stop the manager, close every link's sessions and return once every
    link thread has exited. Replicated streams stay advertised (and
    read-only) on the local relay. *)

val counters : t -> Omf_util.Counters.t
(** Live counters — [frames_replicated], [descriptors_replicated]
    (distinct descriptors learned), [streams_linked],
    [links_established], [loops_skipped], [untagged_skipped],
    [links_refused], [reconnects] (both sessions'), [busy_backoffs],
    [resume_gap_clamped], [sources_lost], [promotes],
    [promote_failures], and the per-stream
    [mirror.<stream>.lag_frames] gauges. relayd serves these on
    [/metrics] (as [omf_mirror_*]) and prints them in its final stats;
    the relay's own STATS reply does not carry them. *)

val stats : t -> (string * int) list
(** A sorted snapshot of {!counters}. *)

val link_frames : t -> (string * int) list
(** Per-stream message frames replicated so far, sorted by stream. *)

val trace_spans : t -> Omf_trace.Trace.span list
(** The mirror's recorded [mirror_replicate] spans (shard [-1]),
    oldest first; empty when [config.trace] is unset. *)
