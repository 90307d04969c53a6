(** Relay-to-relay stream replication with failover (doc/MIRROR.md,
    PROTOCOLS.md §15).

    A mirror keeps a local relay a live replica of a source relay, at
    the same store offsets. Its manager DESCRIBEs every wanted source
    stream and skips those that originate at the local relay, so cycles
    terminate. Each other stream gets one link: DESCRIBE the source,
    claim the stream on the local relay
    ({!Omf_relay.Relay.claim_replica}), subscribe to the source from the
    local store tail, and hand that connection to the shard hosting the
    stream ({!Omf_relay.Relay.adopt_replica}), which replicates every
    frame down its ordinary publisher path. A consumer fails over by
    opening a subscriber session on the replica with [~from] set to
    the next offset it expects ({!Omf_relay.Relay_session.subscribe}):
    offsets are the same on both relays.

    A link the relay closes relinks; a close for the local relay's own
    shutdown does not. [max_attempts] failed handshakes in a row make
    the mirror probe the source (DESCRIBE, then a bare TCP connect): a
    source that answers parks the link ([links_refused] for an error
    answer); only an unreachable one is lost and, with
    [promote_on_loss], promoted locally at a bumped epoch once the
    replicated frames are fsynced. A refusal
    parks the link. Handshakes retry, and a [busy] source is waited
    out, through the client sessions' own driver
    ({!Omf_relay.Relay_client.reconnect},
    {!Omf_relay.Relay_client.busy_wait}); the busy wait spends no
    budget, since overload is not an outage and must never get a live
    source promoted away. *)

type config

val config :
  ?globs:string list ->
  ?rescan_s:float ->
  ?max_attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?promote_on_loss:bool ->
  ?source_auth:string * string ->
  ?compress:bool ->
  ?io_timeout_s:float ->
  source_host:string ->
  source_port:int ->
  unit ->
  config
(** A mirror of the relay at [source_host:source_port].

    - [globs]: replicate only matching streams (['*'] wildcards); [[]],
      the default, replicates all.
    - [rescan_s] (default 1 s): the manager period, for discovery and
      the lag gauges.
    - [max_attempts] (default 8): failed handshakes in a row before the
      source is probed and, unreachable, declared lost.
    - [base_delay_s] and [max_delay_s] (defaults 0.05 s and 1 s): the
      jittered handshake backoff's first step and cap.
    - [promote_on_loss] (default off): promote a lost source's streams
      locally.
    - [source_auth]: the [(key-id, secret)] the links authenticate to
      the source with (PROTOCOLS.md §12).
    - [compress] (default off): offer [comp=lz] on every link to the
      source (doc/COMPRESS.md, PROTOCOLS.md §18); a source that does not
      speak compression negotiates down to plain frames, so the flag is
      safe against old peers.
    - [io_timeout_s] (default 0.5 s): the connect deadline on every
      connection to the source, and the per-operation deadline of every
      exchange before a link goes live; a live link has no read
      deadline, so an idle link stays up. *)

type t

val start : Omf_relay.Relay.t -> config -> t
(** Launch the manager thread replicating into the given (local)
    relay: it discovers source streams (LIST + globs) every
    [rescan_s], runs one link thread per stream, and refreshes
    per-stream [mirror.<stream>.lag_frames] gauges (source tail minus
    local tail). *)

val stop : t -> unit
(** Stop the manager, close every live link and return once every link
    thread has exited. Replicated streams stay advertised (and
    read-only) on the local relay. *)

val stats : t -> (string * int) list
(** A sorted snapshot of the counters — [frames_replicated],
    [descriptors_replicated] (distinct descriptor frames the links
    added), [streams_linked], [links_established], [loops_skipped],
    [untagged_skipped], [links_refused], [reconnects] (relinks of an
    established link), [busy_backoffs], [resume_gap_clamped],
    [sources_lost], [promotes], [promote_failures], and the per-stream
    [mirror.<stream>.lag_frames] gauges. relayd serves these on
    [/metrics] (as [omf_mirror_*]) and prints them in its final stats;
    the relay's own STATS reply does not carry them. *)
