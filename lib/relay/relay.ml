(** The networked event relay: the {!Omf_backbone.Broker} served over
    real TCP by {!Omf_reactor.Reactor} event loops.

    This is the deployable form of the paper's event backbone (Figures 1
    and 3): capture points and subscribers are separate processes on
    separate machines; the relay hosts the broker — stream advertisement,
    per-stream format-descriptor caching with replay for late joiners,
    credential-scoped metadata — behind a small control protocol carried
    on the same length-prefixed TCP framing as the {!Omf_transport.Endpoint}
    descriptor/message frames it relays.

    Design points:

    - {b Single-threaded per shard.} One reactor loop owns every socket
      of its shard; non-blocking reads are reassembled into frames by
      {!Omf_reactor.Conn}, writes are queued per connection and flushed
      on writability. No locks on the hot path, deterministic fan-out
      order. {!Cluster} runs N such loops (one domain each) behind one
      acceptor, pinning each stream to a shard so per-stream ordering
      is preserved.
    - {b Bounded queues + backpressure.} Each subscriber has a bounded
      outbound queue of data frames. When a subscriber falls behind, the
      configured {!policy} decides: [Block] stops reading from the
      stream's publishers (loss-free — TCP pushes back to the capture
      point), [Drop_oldest] sheds the oldest queued data frame
      (descriptor frames are never shed, so the stream stays decodable),
      [Evict_slow] disconnects the laggard so the fast majority is
      unaffected.
    - {b Shared format machinery.} Descriptor frames are cached once per
      stream and replayed to every late joiner — the instance-level
      "compile once, serve many consumers" economics the paper's
      metadata design enables.
    - {b Graceful drain.} Shutdown stops accepting and reading, flushes
      every subscriber queue (up to a deadline), then closes.

    The control protocol — every command, option and reply — is defined
    in relay_proto.mli ({!Relay_proto}); this file only dispatches on
    its decoded requests. *)

open Omf_transport
module Frame = Omf_reactor.Frame
module Proto = Relay_proto
module Broker = Omf_backbone.Broker
module Counters = Omf_util.Counters
module Slice = Omf_util.Slice
module Store = Omf_store.Store
module Compress = Omf_compress.Compress
module Governor = Governor
module Trace = Omf_trace.Trace

let log = Logs.Src.create "omf.relay" ~doc:"TCP event relay"

module Log = (val Logs.src_log log)

type policy = Block | Drop_oldest | Evict_slow

let policy_to_string = function
  | Block -> "block"
  | Drop_oldest -> "drop-oldest"
  | Evict_slow -> "evict-slow-consumer"

let policy_of_string = function
  | "block" -> Some Block
  | "drop-oldest" -> Some Drop_oldest
  | "evict-slow-consumer" | "evict-slow" | "evict" -> Some Evict_slow
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Connections and shards                                               *)
(* ------------------------------------------------------------------ *)

module Reactor = Omf_reactor.Reactor
module Rconn = Omf_reactor.Conn
module Token_bucket = Omf_util.Token_bucket

(** An in-flight chunked stored replay (PROTOCOLS.md §13): [r_next] is
    the next store offset to deliver. Replay is paced from the reactor's
    writable callback — a bounded chunk per pump, budgeted against the
    subscriber's queue watermark — so a [SUBSCRIBE from=0] of a large
    backlog neither materialises the whole log in the write queue nor
    stalls the loop thread. *)
type replay = { r_store : Store.t; mutable r_next : int }

type role =
  | Pending  (** control commands only, no stream attached yet *)
  | Publisher of {
      stream : string;
      link : Link.t;  (** the broker's fan-out entry for the stream *)
      acks : bool;
          (** [acks=1] was requested at PUBLISH on a store-backed
              stream: send ['k' durable] frames as appends harden *)
      mirror : bool;
          (** a replication link ([mirror=1], PROTOCOLS.md §15):
              admitted past the read-only gate on mirrored streams and
              doomed when the stream is promoted out from under it *)
      mutable skip_dup : int;
          (** store-backed resume: this many leading ['M'] frames are
              re-sends of offsets the store already holds ([tail -
              durable] at PUBLISH time) — swallow them instead of
              appending and fanning out duplicates *)
      mutable acked : int;  (** last durable offset sent as an ack *)
      ptrace : Trace.ctx option;
          (** trace context for this publisher's frames (doc/TRACE.md,
              PROTOCOLS.md §17): the [trace=] context supplied at
              PUBLISH, or one minted by the relay's head sampler;
              [None] iff tracing is disabled on the shard *)
    }
  | Subscriber of {
      stream : string;
      unsubscribe : unit -> unit;
      mutable skip_until : int;
          (** store-backed [from=] subscription: drop live ['M'] frames
              whose store offset is below this (they are re-appends the
              subscriber already received before a relay crash); [-1]
              disables the filter *)
      mutable replay : replay option;
          (** chunked stored replay still in flight; live ['M'] frames
              are withheld while set (the pump reads them from the
              store, preserving order) *)
    }

type state = Running | Draining | Stopped

(** Delivery-side tracing mark (doc/TRACE.md): stamped on a subscriber
    connection when a traced frame is enqueued, consumed by the [flush]
    span (first bytes written after the enqueue) and the [deliver] span
    (write queue fully drained). One mark per connection — sampling
    keeps traced frames rare, and a later traced enqueue simply
    restarts the clock — so the untraced path pays one [None] check. *)
type tmark = {
  tm_trace : int64;
  tm_parent : int64;
  tm_sampled : bool;
  tm_stream : string;
  tm_enq_us : int;  (** monotonic enqueue timestamp ({!Trace.now_us}) *)
  mutable tm_flushed : bool;  (** the [flush] span was already recorded *)
}

type conn = {
  cid : int;  (** unique across the cluster: strided by shard count *)
  io : Rconn.t;  (** the reactor-side buffered connection driver *)
  mutable creds : (string * string) list;
  mutable greeted : bool;
      (** HELLO was answered; a second one would re-arm [mac]/[comp]
          mid-stream *)
  mutable role : role;
  mutable over_since : float option;
      (** when the queue first crossed the watermark (Evict_slow) *)
  mutable grace_timer : Reactor.timer option;
      (** pending eviction deadline on the shard's timer wheel *)
  mutable congesting : bool;
      (** this subscriber currently pauses its stream's publishers *)
  mutable mac : Macframe.state option;
      (** HMAC frame mode, negotiated at HELLO; sealing starts with the
          frame after the HELLO exchange in each direction *)
  mutable mac_rejects : int;  (** frames that failed authentication *)
  mutable comp : bool;
      (** LZ frame compression, negotiated at HELLO ([comp=lz],
          PROTOCOLS.md §18) and armed after the plaintext banner like
          [mac]; composed outside authentication — every wire frame is
          [seal (compress body)] out, [decompress (open frame)] in *)
  mutable gov_debited : int;
      (** wire bytes debited against the shard governor and not yet
          credited back (written, dropped, or surrendered at close) —
          always equals this connection's unwritten queued bytes *)
  mutable throttled : bool;
      (** reads paused by the ingress token bucket; a reactor timer
          clears this when the bucket refills *)
  bucket : Token_bucket.t option;
      (** per-connection ingress token bucket ([--ingress-rate]),
          charged one token per publisher stream frame *)
  mutable trace_mark : tmark option;
      (** pending flush/deliver trace spans for the most recently
          enqueued traced frame (subscribers only) *)
  mutable home : t;  (** the shard whose loop owns this connection *)
}

(** Cluster-wide state: which shard owns which stream, and every shard
    (for merged stats). The pins table is the only cross-shard mutable
    structure on the request path; it is mutex-guarded and touched once
    per ADVERTISE/PUBLISH/SUBSCRIBE. *)
and shared = {
  pins_mu : Mutex.t;
  pins : (string, int) Hashtbl.t;  (** stream -> owning shard id *)
  mutable peers : t array;  (** every shard, indexed by shard id *)
}

and t = {
  host : string;
  port : int;
  relay_id : string;
      (** this relay's replication identity (PROTOCOLS.md §15): the
          [origin=] tag stamped on locally advertised streams, shared
          by every shard of a cluster; persisted under the store root
          so a restart keeps owning its streams *)
  policy : policy;
  max_queue : int;
  evict_grace : float;
      (** seconds a subscriber may stay over the watermark before
          [Evict_slow] dooms it; a consumer that drains back below the
          watermark in time is spared (momentary bursts are not
          slowness) *)
  sndbuf : int option;  (** forced SO_SNDBUF on accepted sockets *)
  auth_keys : (string * string) list;
      (** [key-id -> secret] table for HMAC frame negotiation; empty =
          authenticated mode unavailable *)
  mac_reject_limit : int;
      (** close a connection after this many unauthenticated frames *)
  drain_default_s : float;
  governor : Governor.t;
      (** the shard's byte-budget governor (overload control,
          doc/OVERLOAD.md); loop-thread only, like [conns] *)
  trace : Trace.collector option;
      (** sampled distributed tracing (doc/TRACE.md): the shard's span
          ring buffer; [None] = tracing disabled, zero cost *)
  stream_trace : (string, Trace.ctx) Hashtbl.t;
      (** last trace context per stream — served in DESCRIBE metadata
          so downstream mirrors join the same trace; loop-thread only *)
  mutable cur_trace : Trace.ctx option;
      (** context of the message currently being fanned out, visible to
          {!enqueue_relayed_frame} so subscriber marks inherit it *)
  ingress : (float * float) option;
      (** per-connection ingress token bucket [(rate, burst)] in
          frames/s; [None] = unlimited *)
  mutable lsock : Unix.file_descr option;
      (** shards in a cluster have no listener of their own *)
  mutable lreg : Reactor.registration option;
  reactor : Reactor.t;
  broker : Broker.t;
  conns : (int, conn) Hashtbl.t;  (** loop-thread only *)
  counters : Counters.t;
  shard_id : int;
  cid_stride : int;
  shared : shared option;  (** [None] for a standalone relay *)
  store_cfg : Store.config option;
      (** durable stream store; [None] = memory-only relay *)
  stores : (string, Store.t) Hashtbl.t;
      (** per-shard store handles, loop-thread only — the cluster path
          stays lock-free because a stream is pinned to one shard *)
  adverts : (string, (string * string) list) Hashtbl.t;
      (** per-stream advertisement metadata ([subject=] / [version=] /
          [fingerprint=] registry bindings, PROTOCOLS.md §14);
          loop-thread only, safe because the stream is pinned here *)
  mutable fanout_offset : int;
      (** store offset of the ['M'] frame currently being fanned out
          ([-1] outside store-backed fan-out); lets the subscriber-side
          [skip_until] filter see the offset without reframing *)
  mutable wire_cache_body : Bytes.t;
      (** the body whose framed wire message is cached below, keyed by
          physical identity: fanning one publish out to N subscribers
          encodes the wire slices once and every queue shares them *)
  mutable wire_cache : Slice.t list;
  mutable comp_cache_body : Bytes.t;
      (** same sharing for [comp=lz] subscribers, keyed the same way:
          the body is compressed once per fan-out and every compressed
          queue shares the block (plain MAC-less ones also share the
          framed wire message below; sealed ones re-seal the shared
          block per connection, as nonces are per-connection) *)
  mutable comp_cache_blk : Bytes.t;
  mutable comp_cache_wire : Slice.t list;
  comp_scratch : Compress.scratch;
      (** shard-owned match-finder workspace (the shard loop is
          single-threaded) — compression never allocates chain arrays
          per frame *)
  pending_acks : (string, unit) Hashtbl.t;
      (** streams with an appender awaiting a durability ack *)
  mutable ack_flush_scheduled : bool;
  mutable store_timer : Reactor.timer option;
  mutable gauge_timer : Reactor.timer option;
  mutable next_cid : int;
  mutable state : state;
  mutable drain_timer : Reactor.timer option;
  mutable stop_flag : bool;  (** set by {!request_shutdown} *)
}

let port t = t.port
let relay_id t = t.relay_id

(** The embedded broker — for scope policies and direct inspection
    ([Broker.set_scope] installs credential-based field scoping exactly
    as for the in-process broker). *)
let broker t = t.broker

(** One counter snapshot: cluster-wide (summed over every shard) when
    sharded, so a STATS reply from any shard reports whole-relay
    traffic; just this relay's counters when standalone. *)
let counter_snapshot (t : t) : (string * int) list =
  match t.shared with
  | Some sh when Array.length sh.peers > 0 ->
    Counters.merged (Array.to_list (Array.map (fun s -> s.counters) sh.peers))
  | _ -> Counters.dump t.counters

let stats t : (string * int) list =
  counter_snapshot t
  @ List.concat_map
      (fun s ->
        [ (Printf.sprintf "stream.%s.published" s, Broker.published_count t.broker ~stream:s)
        ; (Printf.sprintf "stream.%s.subscribers" s, Broker.subscriber_count t.broker ~stream:s) ])
      (Broker.stream_names t.broker)
  @ Hashtbl.fold
      (fun s st acc ->
        (Printf.sprintf "store.%s.tail" s, Store.tail st)
        :: (Printf.sprintf "store.%s.durable" s, Store.durable st)
        :: (Printf.sprintf "store.%s.segments" s, Store.segments st)
        :: (Printf.sprintf "store.%s.bytes" s, Store.bytes st)
        ::
        (if Store.comp_raw_bytes st > 0 then
           [ (Printf.sprintf "store.%s.comp_raw" s, Store.comp_raw_bytes st)
           ; ( Printf.sprintf "store.%s.comp_stored" s
             , Store.comp_stored_bytes st ) ]
         else [])
        @ acc)
      t.stores []

(** Bytes debited against this shard's governor and not yet credited
    back — by invariant exactly the unwritten queued bytes (test hook
    for the debit/credit symmetry guarantee). *)
let governor_used t = Governor.used t.governor

(** Ask the loop to drain and stop. Safe from another thread or a signal
    handler: it only sets a flag and writes the wake pipe (the loop's
    per-iteration tick polls the flag — no mutex on this path). *)
let request_shutdown (t : t) : unit =
  t.stop_flag <- true;
  Reactor.wake t.reactor

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                       *)
(* ------------------------------------------------------------------ *)

let total_queued (t : t) : int =
  Hashtbl.fold (fun _ c acc -> acc + Rconn.queued c.io) t.conns 0

(** Flush deadline reached (or everything flushed): doom what is left
    and stop the loop. *)
let finish_drain (t : t) =
  if t.state <> Stopped then begin
    t.state <- Stopped;
    (match t.drain_timer with
    | Some tm ->
      Reactor.cancel t.reactor tm;
      t.drain_timer <- None
    | None -> ());
    let live = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter (fun c -> Rconn.doom c.io "shutdown") live;
    (match t.store_timer with
    | Some tm ->
      Reactor.cancel t.reactor tm;
      t.store_timer <- None
    | None -> ());
    (match t.gauge_timer with
    | Some tm ->
      Reactor.cancel t.reactor tm;
      t.gauge_timer <- None
    | None -> ());
    Hashtbl.iter
      (fun stream st ->
        try Store.close st
        with Store.Store_error msg ->
          Log.err (fun m -> m "store %s: close: %s" stream msg))
      t.stores;
    Hashtbl.reset t.stores;
    Reactor.stop t.reactor;
    Log.info (fun m -> m "shard %d stopped" t.shard_id)
  end

let check_drain_done (t : t) =
  if t.state = Draining && total_queued t = 0 then finish_drain t

(** Stop accepting and reading, keep flushing subscriber queues until
    they empty or the drain deadline fires. Loop-thread only. *)
let begin_drain (t : t) =
  if t.state = Running then begin
    t.state <- Draining;
    (match t.lreg with
    | Some r ->
      Reactor.deregister t.reactor r;
      t.lreg <- None
    | None -> ());
    (match t.lsock with
    | Some s ->
      (try Unix.close s with Unix.Unix_error _ -> ());
      t.lsock <- None
    | None -> ());
    Hashtbl.iter (fun _ c -> Rconn.set_read_intent c.io false) t.conns;
    t.drain_timer <-
      Some (Reactor.after t.reactor t.drain_default_s (fun () -> finish_drain t));
    Log.info (fun m -> m "draining %d connections" (Hashtbl.length t.conns));
    check_drain_done t
  end

(* ------------------------------------------------------------------ *)
(* Outbound queues and backpressure                                     *)
(* ------------------------------------------------------------------ *)

(* Debit the shard governor with the wire size (slice total = body +
   the 4-byte length prefix) before queueing; credited back as the
   bytes are written, dropped, or the connection closes. Dead
   connections silently discard the send, so they are not debited. *)
let enqueue_wire (c : conn) ~droppable (wire : Slice.t list) =
  if Rconn.alive c.io then begin
    let wire_bytes = Slice.total wire in
    c.gov_debited <- c.gov_debited + wire_bytes;
    Governor.debit c.home.governor wire_bytes
  end;
  Rconn.send_wire c.io ~droppable wire

(* Compression accounting (doc/COMPRESS.md): monotonic raw/wire byte
   totals per stream, plus the achieved ratio (x100) as a histogram —
   [comp.control.*] covers pre-role and control-only connections. *)
let comp_ratio_bounds = [ 100; 110; 125; 150; 200; 300; 500; 800; 1600 ]

let note_comp (c : conn) ~(raw : int) ~(wire : int) =
  let t = c.home in
  let subject =
    match c.role with
    | Publisher p -> p.stream
    | Subscriber s -> s.stream
    | Pending -> "control"
  in
  Counters.incr t.counters ~by:raw (Printf.sprintf "comp.%s.raw_bytes" subject);
  Counters.incr t.counters ~by:wire
    (Printf.sprintf "comp.%s.wire_bytes" subject);
  if wire > 0 then
    Counters.observe t.counters ~bounds:comp_ratio_bounds "compress_ratio"
      (raw * 100 / wire)

let enqueue_entry (c : conn) ~droppable (frame : Bytes.t) =
  let t = c.home in
  let wire =
    if c.comp then begin
      (* compress once per fan-out (same physical-identity key as the
         plain wire cache below), then frame or seal the shared block *)
      let blk =
        if frame == t.comp_cache_body then t.comp_cache_blk
        else begin
          let b = Compress.compress ~scratch:t.comp_scratch frame in
          t.comp_cache_body <- frame;
          t.comp_cache_blk <- b;
          t.comp_cache_wire <- Frame.wire [ Slice.of_bytes b ];
          b
        end
      in
      note_comp c ~raw:(Bytes.length frame) ~wire:(Bytes.length blk);
      match c.mac with
      | Some st -> Frame.wire [ Slice.of_bytes (Macframe.seal_next st blk) ]
      | None -> t.comp_cache_wire
    end
    else
      match c.mac with
      | Some st ->
        (* under negotiated HMAC mode every outbound frame is sealed;
           sealing happens at enqueue time so nonces follow queue order
           exactly — the frame path's one copy-on-seal *)
        Frame.wire [ Slice.of_bytes (Macframe.seal_next st frame) ]
      | None ->
        (* encode the wire message once per published body: the broker
           fans the same physical [frame] to every subscriber, so all N
           queues share one header slice and one body buffer *)
        if frame == t.wire_cache_body then t.wire_cache
        else begin
          let w = Frame.wire [ Slice.of_bytes frame ] in
          t.wire_cache_body <- frame;
          t.wire_cache <- w;
          w
        end
  in
  enqueue_wire c ~droppable wire

(** Enqueue a body that is a view into a shared buffer (stored-replay
    chunks): framed without copying on plain connections, sealed (the
    copy-on-seal) and/or compressed on negotiated ones. *)
let enqueue_entry_slice (c : conn) ~droppable (body : Slice.t) =
  let wire =
    if c.comp then begin
      let blk = Compress.compress_slice ~scratch:c.home.comp_scratch body in
      note_comp c ~raw:(Slice.length body) ~wire:(Bytes.length blk);
      match c.mac with
      | Some st -> Frame.wire [ Slice.of_bytes (Macframe.seal_next st blk) ]
      | None -> Frame.wire [ Slice.of_bytes blk ]
    end
    else
      match c.mac with
      | Some st ->
        Frame.wire [ Slice.of_bytes (Macframe.seal_next_slices st [ body ]) ]
      | None -> Frame.wire [ body ]
  in
  enqueue_wire c ~droppable wire

(** Return [n] freshly written-or-shed wire bytes to the governor. *)
let credit_conn (c : conn) (n : int) =
  let n = min n c.gov_debited in
  if n > 0 then begin
    c.gov_debited <- c.gov_debited - n;
    Governor.credit c.home.governor n
  end

(* --- tracing span recorders (doc/TRACE.md) ------------------------- *)

(* A span is written only when the trace is sampled or the duration
   crosses the slow threshold; the same gate feeds the stage-latency
   histogram so "stage_us.*" and /trace/spans always agree. *)
let trace_record (t : t) ~(trace : int64) ~(parent : int64)
    ~(sampled : bool) ~(stage : string) ~(stream : string) ~(t0_us : int) =
  match t.trace with
  | None -> ()
  | Some col ->
    let dur = Trace.now_us () - t0_us in
    if Trace.should_record col ~sampled ~dur_us:dur then begin
      Trace.record col ~trace ~parent ~stage ~stream ~start_us:t0_us
        ~dur_us:dur;
      Counters.observe t.counters ("stage_us." ^ stage) dur
    end

let trace_span (t : t) (ctx : Trace.ctx) ~(stage : string)
    ~(stream : string) ~(t0_us : int) =
  trace_record t ~trace:ctx.Trace.trace_id ~parent:ctx.Trace.span_id
    ~sampled:ctx.Trace.sampled ~stage ~stream ~t0_us

let trace_mark_span (t : t) (tm : tmark) ~(stage : string) =
  trace_record t ~trace:tm.tm_trace ~parent:tm.tm_parent
    ~sampled:tm.tm_sampled ~stage ~stream:tm.tm_stream ~t0_us:tm.tm_enq_us

let reply (c : conn) (r : Proto.reply) =
  enqueue_entry c ~droppable:false (Proto.encode_reply r)

let reply_ok c body = reply c (Proto.Ok body)

let reply_err (t : t) c msg =
  Counters.incr t.counters "errors";
  reply c (Proto.Err msg)

(** Shed a command with the retryable overload status (PROTOCOLS.md
    §16). The connection keeps its (Pending) role and stays usable —
    the client is expected to back off [retry_ms] and retry on the same
    connection. *)
let reply_busy (t : t) c (what : string) =
  Counters.incr t.counters (what ^ "_busy");
  reply c (Proto.Busy (Governor.busy_retry_ms t.governor))

(* ------------------------------------------------------------------ *)
(* Durable store plumbing (loop-thread only)                            *)
(* ------------------------------------------------------------------ *)

(** The shard's store handle for [stream], opened (and recovered) on
    first touch. [None] when the relay runs memory-only. Raises
    {!Store.Store_error} if the on-disk log is damaged beyond the
    torn-tail repair. *)
let store_handle (t : t) (stream : string) : Store.t option =
  match t.store_cfg with
  | None -> None
  | Some cfg -> (
    match Hashtbl.find_opt t.stores stream with
    | Some st -> Some st
    | None ->
      let st = Store.open_stream cfg stream in
      Hashtbl.replace t.stores stream st;
      Some st)

(** Send ['k' durable] to every [acks=1] publisher of the streams
    marked in [pending_acks] whose durable watermark advanced since the
    last ack. Coalesced: scheduled at most once per dispatch round. *)
let flush_acks (t : t) =
  t.ack_flush_scheduled <- false;
  if Hashtbl.length t.pending_acks > 0 then begin
    let streams = Hashtbl.fold (fun s () acc -> s :: acc) t.pending_acks [] in
    Hashtbl.reset t.pending_acks;
    List.iter
      (fun stream ->
        match Hashtbl.find_opt t.stores stream with
        | None -> ()
        | Some st ->
          let durable = Store.durable st in
          Hashtbl.iter
            (fun _ c ->
              match c.role with
              | Publisher p
                when p.acks
                     && String.equal p.stream stream
                     && durable > p.acked
                     && Rconn.alive c.io ->
                p.acked <- durable;
                reply c (Proto.Ack durable)
              | _ -> ())
            t.conns)
      streams
  end

let schedule_ack_flush (t : t) (stream : string) =
  Hashtbl.replace t.pending_acks stream ();
  if not t.ack_flush_scheduled then begin
    t.ack_flush_scheduled <- true;
    Reactor.defer t.reactor (fun () -> flush_acks t)
  end

(** Periodic store maintenance: fsync dirty logs (this is the whole of
    the [Interval] policy, and bounds straggler latency for [Every_n]),
    wake acks whose durable advanced, and enforce age-based retention.
    Re-arms itself while the shard runs. *)
let rec store_tick (t : t) (period : float) =
  Hashtbl.iter
    (fun stream st ->
      let before = Store.durable st in
      (match Store.sync st with
      | d -> if d > before then schedule_ack_flush t stream
      | exception Store.Store_error msg ->
        Counters.incr t.counters "store_errors";
        Log.err (fun m -> m "store %s: %s" stream msg));
      ignore (Store.apply_retention st))
    t.stores;
  if t.state = Running then
    t.store_timer <-
      Some (Reactor.after t.reactor period (fun () -> store_tick t period))

(** Refresh the Prometheus-visible gauges: per-stream subscriber queue
    depth and per-stream store segments/bytes/tail/durable. Runs every
    second on the shard's own loop, so no locks are needed; the gauges
    land in [t.counters] and flow through STATS, [Counters.merged] and
    [Http.serve_metrics] like any counter. *)
let rec gauge_tick (t : t) =
  List.iter
    (fun stream ->
      let depth =
        Hashtbl.fold
          (fun _ c acc ->
            match c.role with
            | Subscriber s when String.equal s.stream stream ->
              acc + Rconn.queued_droppable c.io
            | _ -> acc)
          t.conns 0
      in
      Counters.set t.counters
        (Printf.sprintf "stream.%s.queue_depth" stream)
        depth)
    (Broker.stream_names t.broker);
  Hashtbl.iter
    (fun stream st ->
      let g name v =
        Counters.set t.counters (Printf.sprintf "store.%s.%s" stream name) v
      in
      g "segments" (Store.segments st);
      g "bytes" (Store.bytes st);
      g "tail" (Store.tail st);
      g "durable" (Store.durable st);
      if Store.comp_raw_bytes st > 0 then begin
        g "comp_raw" (Store.comp_raw_bytes st);
        g "comp_stored" (Store.comp_stored_bytes st)
      end)
    t.stores;
  Governor.note_tick t.governor ~now:(Unix.gettimeofday ());
  Counters.set t.counters "governor_used_bytes" (Governor.used t.governor);
  Counters.set t.counters "governor_health"
    (Governor.health_level (Governor.health t.governor));
  if Governor.enabled t.governor then begin
    Counters.set t.counters "governor_budget_bytes"
      (Governor.budget t.governor);
    Counters.set t.counters "governor_retry_ms"
      (Governor.busy_retry_ms t.governor)
  end;
  if t.state = Running then
    t.gauge_timer <- Some (Reactor.after t.reactor 1.0 (fun () -> gauge_tick t))

(** Under [Block]: is some subscriber of [stream] over the watermark? *)
let stream_congested (t : t) (stream : string) : bool =
  t.policy = Block
  && Hashtbl.fold
       (fun _ c acc ->
         acc
         || match c.role with
            | Subscriber s ->
              String.equal s.stream stream
              && Rconn.alive c.io
              && Rconn.queued_droppable c.io >= t.max_queue
            | _ -> false)
       t.conns false

(** May this publisher connection be read from at all? False while the
    shard is not running, the connection's ingress bucket is in debt,
    or the governor is [Overloaded] (ingress shed until usage falls
    back below the low watermark). Per-stream [Block] congestion is a
    separate condition checked by the callers that know the stream. *)
let publisher_read_ok (t : t) (c : conn) : bool =
  t.state = Running
  && (not c.throttled)
  && Governor.health t.governor <> Governor.Overloaded

let set_publishers_reading (t : t) (stream : string) (b : bool) =
  Hashtbl.iter
    (fun _ c ->
      match c.role with
      | Publisher p when String.equal p.stream stream ->
        Rconn.set_read_intent c.io (b && publisher_read_ok t c)
      | _ -> ())
    t.conns

let maybe_resume_stream (t : t) (stream : string) =
  if t.policy = Block && t.state = Running && not (stream_congested t stream)
  then set_publishers_reading t stream true

let clear_grace (c : conn) =
  c.over_since <- None;
  match c.grace_timer with
  | Some tm ->
    Reactor.cancel c.home.reactor tm;
    c.grace_timer <- None
  | None -> ()

(** Doom [c] as a slow consumer. *)
let evict_slow (t : t) (c : conn) =
  Counters.incr t.counters "subscribers_evicted";
  Log.info (fun m -> m "conn %d: evicting slow consumer" c.cid);
  Rconn.doom c.io "slow consumer evicted"

(** Start the eviction grace clock: if the subscriber is still over the
    watermark when the timer fires, it is evicted — an actively
    draining consumer that recovers in time is spared ({!conn_progress}
    cancels the timer). *)
let arm_grace (t : t) (c : conn) =
  match c.grace_timer with
  | Some _ -> ()
  | None ->
    c.grace_timer <-
      Some
        (Reactor.after t.reactor t.evict_grace (fun () ->
             c.grace_timer <- None;
             match c.over_since with
             | Some _ when Rconn.alive c.io -> evict_slow t c
             | _ -> ()))

let replay_chunk = 64
(** frames delivered per pump of a chunked stored replay: small enough
    that one pump cannot monopolise the loop thread, large enough to
    amortise the per-chunk segment walk *)

(** Advance [c]'s chunked stored replay by one bounded chunk. Budgeted
    against the queue watermark ([max_queue - queued]): a full queue
    pumps nothing and the next writable callback ({!conn_progress})
    resumes — stored replay is flow-controlled by the consumer's own
    drain rate instead of materialising the whole backlog at once. When
    the pump catches the store tail, the replay ends and [skip_until]
    moves up so live delivery takes over at exactly the next offset —
    no gap, no duplicate. *)
let pump_replay (t : t) (c : conn) =
  match c.role with
  | Subscriber ({ replay = Some r; _ } as s) ->
    if t.state <> Running || not (Rconn.alive c.io) then s.replay <- None
    else begin
      let failed = ref false in
      (* graceful degradation: a Degraded shard pumps smaller chunks so
         stored replays stop amplifying the pressure that degraded it;
         an Overloaded shard pumps nothing — stalled replays resume from
         the writable callback or the downward health transition *)
      let chunk =
        match Governor.health t.governor with
        | Governor.Healthy -> replay_chunk
        | Governor.Degraded ->
          Counters.incr t.counters "store_replay_throttled";
          replay_chunk / 4
        | Governor.Overloaded -> 0
      in
      let budget = min chunk (t.max_queue - Rconn.queued_droppable c.io) in
      (if budget > 0 then
         let upto = min (r.r_next + budget) (Store.tail r.r_store) in
         match
           (* slice replay: bodies are views into the store's segment
              read buffers, enqueued without copying *)
           Store.iter_range_slices r.r_store r.r_next upto (fun off body ->
               Counters.incr t.counters "store_replay_frames";
               Counters.incr t.counters "frames_out";
               enqueue_entry_slice c ~droppable:true body;
               r.r_next <- off + 1)
         with
         | () -> ()
         | exception Store.Store_error msg ->
           (* a partial replay would silently gap the stream: kill the
              subscription so the client retries *)
           failed := true;
           s.replay <- None;
           Counters.incr t.counters "store_errors";
           Log.err (fun m -> m "store %s: replay: %s" s.stream msg);
           Rconn.doom c.io "store replay failed");
      if not !failed then
        if r.r_next >= Store.tail r.r_store then begin
          s.skip_until <- r.r_next;
          s.replay <- None;
          Counters.incr t.counters "store_replay_done"
        end
        else Counters.incr t.counters "store_replay_chunks"
    end
  | Subscriber _ | Publisher _ | Pending -> ()

(** Enqueue a relayed stream frame onto a subscriber, applying the
    backpressure policy. Raises {!Link.Closed} when the subscriber is
    dead so the broker skips it. *)
let rec enqueue_relayed (t : t) (c : conn) (frame : Bytes.t) =
  if not (Rconn.alive c.io) then raise Link.Closed;
  (* Store-backed crash recovery: a resuming publisher re-appends
     offsets a resubscribed consumer already received live before the
     crash; the subscriber declared its high-water mark at SUBSCRIBE
     ([skip_until]) and live frames below it are silently elided.
     While a chunked replay is in flight {e every} store-offset frame
     is withheld: it was appended before fan-out, so the pump will
     deliver it from the store in order. *)
  match c.role with
  | Subscriber { replay = Some _; _ } when t.fanout_offset >= 0 ->
    Counters.incr t.counters "store_fanout_deferred";
    pump_replay t c
  | Subscriber s
    when t.fanout_offset >= 0 && s.skip_until >= 0
         && t.fanout_offset < s.skip_until ->
    Counters.incr t.counters "store_fanout_skipped"
  | Subscriber _ | Publisher _ | Pending -> enqueue_relayed_frame t c frame

and enqueue_relayed_frame (t : t) (c : conn) (frame : Bytes.t) =
  let droppable =
    not
      (Bytes.length frame > 0
      && Char.equal (Bytes.get frame 0) Endpoint.frame_descriptor)
  in
  if droppable && Rconn.queued_droppable c.io >= t.max_queue then begin
    match t.policy with
    | Block ->
      (* over the high-watermark: pause the stream's publishers until
         this queue drains ({!conn_progress} resumes them); nothing is
         lost — TCP pushes back to the capture point *)
      if not c.congesting then begin
        c.congesting <- true;
        match c.role with
        | Subscriber s -> set_publishers_reading t s.stream false
        | Publisher _ | Pending -> ()
      end
    | Drop_oldest ->
      let shed = Rconn.drop_oldest_droppable c.io in
      if shed > 0 then begin
        credit_conn c shed;
        Counters.incr t.counters "frames_dropped"
      end
    | Evict_slow -> (
      if Governor.health t.governor <> Governor.Healthy then begin
        (* Degraded: no grace for laggards — shed the slow consumer now
           so its queue bytes come back before the shard overloads *)
        Counters.incr t.counters "evictions_eager";
        evict_slow t c
      end
      else
        (* over the watermark: start the grace clock rather than evicting
           outright.  The queue may grow past the watermark during the
           grace window; it is bounded by grace x publish rate. *)
        match c.over_since with
        | None ->
          c.over_since <- Some (Reactor.now ());
          arm_grace t c
        | Some _ -> ())
  end;
  (match t.cur_trace with
  | Some ctx -> (
    match c.role with
    | Subscriber s ->
      c.trace_mark <-
        Some
          { tm_trace = ctx.Trace.trace_id
          ; tm_parent = ctx.Trace.span_id
          ; tm_sampled = ctx.Trace.sampled
          ; tm_stream = s.stream
          ; tm_enq_us = Trace.now_us ()
          ; tm_flushed = false }
    | Publisher _ | Pending -> ())
  | None -> ());
  enqueue_entry c ~droppable frame;
  Counters.incr t.counters "frames_out"

(** Governor health changed (called synchronously from a debit or
    credit). Entering [Overloaded] pauses ingress from every publisher
    — control traffic, subscriber drains and descriptor replays keep
    flowing, so the shard sheds load without going dark. Leaving it
    resumes publishers (unless individually throttled or their stream
    is Block-congested) and re-pumps stored replays stalled at the
    zero-chunk budget. *)
let on_governor_transition (t : t) (prev : Governor.health)
    (next : Governor.health) =
  Counters.set t.counters "governor_health" (Governor.health_level next);
  Counters.incr t.counters
    (match next with
    | Governor.Healthy -> "governor_recovered"
    | Governor.Degraded -> "governor_degraded"
    | Governor.Overloaded -> "governor_overloaded");
  Log.info (fun m ->
      m "shard %d: governor %s -> %s (%d of %d budget bytes queued)"
        t.shard_id
        (Governor.health_name prev)
        (Governor.health_name next)
        (Governor.used t.governor) (Governor.budget t.governor));
  let was_over = prev = Governor.Overloaded in
  let is_over = next = Governor.Overloaded in
  if is_over && not was_over then
    Hashtbl.iter
      (fun _ c ->
        match c.role with
        | Publisher _ -> Rconn.set_read_intent c.io false
        | Subscriber _ | Pending -> ())
      t.conns
  else if was_over && not is_over then
    Hashtbl.iter
      (fun _ c ->
        match c.role with
        | Publisher p ->
          if publisher_read_ok t c && not (stream_congested t p.stream) then
            Rconn.set_read_intent c.io true
        | Subscriber { replay = Some _; _ } -> pump_replay t c
        | Subscriber _ | Pending -> ())
      t.conns

(* ------------------------------------------------------------------ *)
(* Frame dispatch                                                       *)
(* ------------------------------------------------------------------ *)

(** Reject a connection at the protocol level: count it, reply, doom
    (the doom's opportunistic flush usually gets the ['e'] out). *)
let protocol_reject (t : t) (c : conn) (msg : string) =
  Counters.incr t.counters "frames_rejected";
  Log.warn (fun m -> m "conn %d: %s" c.cid msg);
  reply_err t c msg;
  Rconn.doom c.io "protocol error"

(** HELLO: record credentials and negotiate the frame mode. With
    [auth=hmac] + a known [key-id], the ['o'] reply is sent in the
    clear and every subsequent frame in both directions is sealed
    ({!Macframe}); an unknown key or unsupported mode is refused and
    the connection dropped. A client that reconnects after an outage
    marks itself with an [omf-reconnect] credential so operators can
    see churn in STATS. A repeated HELLO is a protocol violation: it
    would re-arm the frame modes mid-stream. *)
let handle_hello (t : t) (c : conn) (creds : (string * string) list) =
  c.greeted <- true;
  c.creds <- creds;
  if List.mem_assoc "omf-reconnect" creds then
    Counters.incr t.counters "reconnects_accepted";
  (* comp=lz (PROTOCOLS.md §18) negotiates down, never refuses: an
     unknown mode simply isn't echoed in the banner, so both sides fall
     back to plain frames — exactly what an old peer would do *)
  let comp = List.assoc_opt "comp" creds = Some "lz" in
  let banner mac = Proto.encode_banner { Proto.mac; comp } in
  let arm_comp () =
    if comp then begin
      Counters.incr t.counters "comp_sessions";
      c.comp <- true
    end
  in
  match List.assoc_opt "auth" creds with
  | None ->
    reply_ok c (banner false);
    arm_comp ()
  | Some "hmac" -> (
    match List.assoc_opt "key-id" creds with
    | None ->
      Counters.incr t.counters "auth_denied";
      reply_err t c "hello: auth=hmac requires key-id";
      Rconn.doom c.io "auth denied"
    | Some id -> (
      match List.assoc_opt id t.auth_keys with
      | None ->
        Counters.incr t.counters "auth_denied";
        reply_err t c (Printf.sprintf "hello: unknown key-id %s" id);
        Rconn.doom c.io "auth denied"
      | Some key ->
        Counters.incr t.counters "auth_sessions";
        reply_ok c (banner true);
        (* armed after the reply: the reply itself is plaintext, the
           next outbound frame is the first sealed (and compressed)
           one *)
        c.mac <- Some (Macframe.state ~key);
        arm_comp ()))
  | Some other ->
    Counters.incr t.counters "auth_denied";
    reply_err t c (Printf.sprintf "hello: unsupported auth mode %s" other);
    Rconn.doom c.io "auth denied"

(** Which shard owns [stream]? First toucher pins it (standalone relays
    always own everything). Thread-safe; called from any shard loop. *)
let stream_owner (t : t) (stream : string) : t =
  match t.shared with
  | None -> t
  | Some sh ->
    Mutex.lock sh.pins_mu;
    let owner =
      match Hashtbl.find_opt sh.pins stream with
      | Some id -> sh.peers.(id)
      | None ->
        Hashtbl.replace sh.pins stream t.shard_id;
        t
    in
    Mutex.unlock sh.pins_mu;
    owner

(** The stream's advertisement metadata, defaulting streams advertised
    before origin tracking (or recovered from a pre-§15 store) to
    owned-here at epoch 0. *)
let advert_info (t : t) (stream : string) : (string * string) list =
  Proto.tagged
    (Option.value (Hashtbl.find_opt t.adverts stream) ~default:[])
    ~origin:t.relay_id

(** Record (and, when store-backed, persist) the stream's metadata so a
    restarted relay re-advertises it — registry binding and origin tag
    included — before any publisher returns. *)
let persist_advert (t : t) (stream : string) (kvs : (string * string) list) =
  Hashtbl.replace t.adverts stream kvs;
  match store_handle t stream with
  | None -> ()
  | Some st -> Store.set_meta st kvs
  | exception Store.Store_error msg ->
    Counters.incr t.counters "store_errors";
    Log.err (fun m -> m "store %s: %s" stream msg)

(** Serve one decoded control request. {!dispatch} has already refused
    role conflicts and moved a command naming another shard's stream
    to that shard. *)
let handle_control (t : t) (c : conn) (req : Proto.request) =
  match req with
  | Proto.Hello _ when c.greeted ->
    protocol_reject t c "hello: repeated on this connection"
  | Proto.Hello creds -> handle_hello t c creds
  | Proto.Stats -> reply_ok c (Proto.encode_stats (stats t))
  | Proto.Advertise { stream; meta; schema } -> (
    let current = Hashtbl.find_opt t.adverts stream in
    match Proto.gate_advert ~relay_id:t.relay_id ~current stream meta with
    | Error msg ->
      Counters.incr t.counters "advert_refused";
      reply_err t c msg
    | Ok kvs -> (
      match Broker.advertise t.broker ~stream ~schema with
      | () ->
        Counters.incr t.counters "advertisements";
        if meta <> [] then Counters.incr t.counters "advert_meta";
        (* persist the schema so a restarted relay can re-advertise
           the stream before any publisher returns *)
        (match store_handle t stream with
        | None -> ()
        | Some st -> Store.set_schema st schema
        | exception Store.Store_error msg ->
          Counters.incr t.counters "store_errors";
          Log.err (fun m -> m "store %s: %s" stream msg));
        persist_advert t stream kvs;
        reply_ok c ""
      | exception Omf_xschema.Schema.Schema_error m ->
        reply_err t c (Printf.sprintf "advertise %s: %s" stream m)))
  | Proto.Publish { stream; acks; mirror = tag; trace } -> (
    if Governor.health t.governor = Governor.Overloaded then
      (* shed by class: new ingress is refused retryably while
         descriptor/control traffic (ADVERTISE, DESCRIBE, STATS, live
         SUBSCRIBE) still flows, so streams stay decodable *)
      reply_busy t c "publish"
    else
      match Broker.publisher_link t.broker ~stream with
      | exception Broker.Unknown_stream s ->
        reply_err t c (Proto.unknown_stream "publish" s)
      | link -> (
        let origin, epoch =
          Proto.tag (advert_info t stream) ~relay_id:t.relay_id
        in
        let owned = String.equal origin t.relay_id in
        let mirror = tag <> None in
        (* The replication write gate (PROTOCOLS.md §15): a mirrored
           stream takes appends only from a mirror link whose (origin,
           epoch) tag matches the local record — a plain publisher is
           told the stream is read-only, a mirror link that outlived a
           promote (or looped back to the origin) is told to
           re-handshake. *)
        match tag with
        | None when not owned ->
          reply_err t c (Proto.read_only "publish" stream origin)
        | Some tag when owned || tag <> (origin, epoch) ->
          Counters.incr t.counters "mirror_publish_refused";
          reply_err t c (Proto.stale_mirror stream origin epoch)
        | None | Some _ -> (
            let become ~acks ~skip_dup ~acked reply_body =
              (* Trace head sampling happens here, once per publisher:
                 a supplied [trace=] context (a capture point or an
                 upstream relay already decided) is adopted verbatim;
                 otherwise this relay draws the sampling decision. The
                 unsampled case still mints ids so the slow-span
                 always-record path has a trace to attribute to. *)
              let ptrace =
                match t.trace with
                | None -> None
                | Some col ->
                  let ctx =
                    match trace with
                    | Some ctx -> ctx
                    | None -> Trace.make ~sampled:(Trace.sample col) ()
                  in
                  Hashtbl.replace t.stream_trace stream ctx;
                  Some ctx
              in
              c.role <-
                Publisher { stream; link; acks; mirror; skip_dup; acked; ptrace };
              Counters.incr t.counters
                (if mirror then "mirror_publishers" else "publishers");
              (* joining a stream that is already congested: start paused *)
              if stream_congested t stream then
                Rconn.set_read_intent c.io false;
              reply_ok c reply_body
            in
            match store_handle t stream with
            | None ->
              become ~acks:false ~skip_dup:0 ~acked:0
                (Proto.encode_published None)
            | Some st ->
              (* Store-backed: report the durable watermark. An [acks=1]
                 publisher resumes from it — it resends every buffered
                 frame at or past [durable] and numbers new frames from
                 it, so the watermark must be exact at the handshake:
                 sync first, making [durable = tail]. (Without the sync a
                 fresh publisher racing a dead one's unsynced appends
                 would have its first [tail - durable] frames mistaken
                 for resends.) [skip_dup] stays as a guard should the two
                 ever diverge between the sync and the reply. A mirror
                 link gets the same exact handshake plus the tail — the
                 offset it resumes pumping source frames from. *)
              if acks || mirror then ignore (Store.sync st);
              let durable = Store.durable st in
              let skip_dup =
                if acks || mirror then Store.tail st - durable else 0
              in
              let tail = if mirror then Some (Store.tail st) else None in
              become ~acks ~skip_dup ~acked:durable
                (Proto.encode_published (Some { Proto.durable; tail }))
            | exception Store.Store_error msg ->
              Counters.incr t.counters "store_errors";
              reply_err t c (Printf.sprintf "publish %s: store: %s" stream msg)
            )))
  | Proto.Subscribe { stream; from; meta } -> (
      if
        Governor.health t.governor = Governor.Overloaded
        && Option.value from ~default:(-1) >= 0
      then
        (* a stored replay would queue an arbitrary backlog against an
           exhausted budget; live (tail) subscriptions drain the shard
           and are still admitted *)
        reply_busy t c "subscribe"
      else
        match Broker.metadata_for t.broker ~stream c.creds with
        | schema -> (
          let link =
            { Link.send = (fun frame -> enqueue_relayed t c frame)
            ; recv = (fun () -> None)
            ; close = (fun () -> ()) }
          in
          (* [meta=1]: prefix the stream's advertised registry binding
             ([subject=] / [fingerprint=] ...) to the schema reply —
             only on request, so pre-§14 clients parse the body as
             before *)
          let meta =
            if meta then
              Option.value (Hashtbl.find_opt t.adverts stream) ~default:[]
            else []
          in
          let answer offset =
            reply_ok c
              (Proto.encode_schema_reply { Proto.offset; meta; schema })
          in
          let plain () =
            (* reply first so the scoped schema precedes replayed frames *)
            answer None;
            let unsubscribe =
              Broker.subscribe t.broker ~stream ~creds:c.creds link
            in
            c.role <-
              Subscriber { stream; unsubscribe; skip_until = -1; replay = None };
            Counters.incr t.counters "subscriptions"
          in
          match from with
          | None -> plain ()
          | Some from -> (
            match store_handle t stream with
            | None ->
              (* [from=] against a memory-only relay degrades to a live
                 subscription (the reply carries no offset line, which
                 tells the session that offsets are not tracked) *)
              plain ()
            | Some st ->
              (* [start] is where delivery begins: the tail for a
                 live-only subscription (from=-1), otherwise the
                 requested offset clamped up past retention. When the
                 subscriber is {e ahead} of the store (it outlived a
                 crash that lost unsynced appends), [start > tail]:
                 nothing is replayed and the [skip_until] filter elides
                 the re-appended offsets below [start]. *)
              let tail = Store.tail st in
              let oldest = Store.oldest st in
              let start = if from < 0 then tail else max from oldest in
              if from >= 0 && start > from then
                Counters.incr t.counters "store_replay_clamped";
              answer (Some start);
              let unsubscribe =
                Broker.subscribe t.broker ~stream ~creds:c.creds link
              in
              (* replay runs chunked off the writable callback
                 ({!pump_replay}): the first pump goes out now, the
                 rest are paced by the subscriber's own drain rate *)
              let replay =
                if start < tail then begin
                  Counters.incr t.counters "store_replays";
                  Some { r_store = st; r_next = start }
                end
                else None
              in
              let pump = Option.is_some replay in
              c.role <-
                Subscriber { stream; unsubscribe; skip_until = start; replay };
              if pump then pump_replay t c;
              Counters.incr t.counters "subscriptions"
            | exception Store.Store_error msg ->
              Counters.incr t.counters "store_errors";
              reply_err t c
                (Printf.sprintf "subscribe %s: store: %s" stream msg)))
        | exception Broker.Unknown_stream s ->
          reply_err t c (Proto.unknown_stream "subscribe" s)
        | exception Broker.Access_denied m ->
          reply_err t c (Proto.access_denied "subscribe" m))
  | Proto.List ->
    (* cluster-wide: the pins table names every stream any shard owns,
       so a mirror scanning for streams needs no shard awareness *)
    let names =
      match t.shared with
      | Some sh ->
        Mutex.lock sh.pins_mu;
        let l = Hashtbl.fold (fun s _ acc -> s :: acc) sh.pins [] in
        Mutex.unlock sh.pins_mu;
        l
      | None -> Broker.stream_names t.broker
    in
    Counters.incr t.counters "lists";
    reply_ok c (Proto.encode_list (List.sort compare names))
  | Proto.Describe stream -> (
    match Broker.metadata_for t.broker ~stream c.creds with
    | schema ->
      Counters.incr t.counters "describes";
      (* §17: when tracing is on and the stream's publisher carries a
         context, serve it as a [trace=] metadata line — a mirror
         DESCRIBEs before replicating and joins the same trace, so
         spans line up across relays. Never persisted (the mirror
         strips it before re-advertising). *)
      let ctx =
        if t.trace = None then None else Hashtbl.find_opt t.stream_trace stream
      in
      let meta = Proto.with_trace (advert_info t stream) ctx in
      reply_ok c
        (Proto.encode_schema_reply { Proto.offset = None; meta; schema })
    | exception Broker.Unknown_stream s ->
      reply_err t c (Proto.unknown_stream "describe" s)
    | exception Broker.Access_denied m ->
      reply_err t c (Proto.access_denied "describe" m))
  | Proto.Promote stream ->
    if not (List.exists (String.equal stream) (Broker.stream_names t.broker))
    then reply_err t c (Proto.unknown_stream "promote" stream)
    else begin
      let kvs = advert_info t stream in
      let origin, epoch = Proto.tag kvs ~relay_id:t.relay_id in
      if String.equal origin t.relay_id then
        (* already owned here: idempotent, no epoch burn *)
        reply_ok c (Proto.encode_epoch epoch)
      else begin
        let epoch = epoch + 1 in
        persist_advert t stream
          (Proto.with_origin kvs ~origin:t.relay_id ~epoch);
        Counters.incr t.counters "promotes";
        (* any live replication link into this stream predates the
           ownership change: doom it so its epoch check re-runs *)
        Hashtbl.iter
          (fun _ pc ->
            match pc.role with
            | Publisher p when p.mirror && String.equal p.stream stream ->
              Rconn.doom pc.io "stream promoted"
            | _ -> ())
          t.conns;
        Log.info (fun m ->
            m "stream %s promoted: now %s@%d (was %s)" stream t.relay_id epoch
              origin);
        reply_ok c (Proto.encode_epoch epoch)
      end
    end

(** The still-roleless connection [c] names a stream pinned to another
    shard: it migrates there (fd, decoder backlog, write queue and MAC
    state travel; the command runs on the target loop, then any
    buffered frames — per-connection order preserved). *)
let route (src : t) (target : t) (c : conn) (req : Proto.request) =
  Counters.incr src.counters "shard_handoffs";
  Hashtbl.remove src.conns c.cid;
  (* the write queue travels with the connection: surrender its byte
     accounting to the source governor here (source loop thread) and
     re-debit the target governor on its own loop after adoption *)
  if c.gov_debited > 0 then begin
    Governor.credit src.governor c.gov_debited;
    c.gov_debited <- 0
  end;
  Rconn.detach c.io;
  Reactor.inject target.reactor (fun () ->
      if target.state = Running && Rconn.alive c.io then begin
        c.home <- target;
        Hashtbl.replace target.conns c.cid c;
        c.gov_debited <- Rconn.queued_bytes c.io;
        Governor.debit target.governor c.gov_debited;
        Rconn.adopt target.reactor c.io;
        handle_control target c req
      end
      else Rconn.doom c.io "shard draining")

(** Run one decoded control request on the shard that owns its stream.
    A connection with a role is wedded to its shard's broker: it may not
    PUBLISH or SUBSCRIBE again, nor name another shard's stream. *)
let dispatch (t : t) (c : conn) (req : Proto.request) =
  match (req, Proto.target req, c.role) with
  | ( (Proto.Publish _ | Proto.Subscribe _),
      Some (cmd, _),
      (Publisher _ | Subscriber _) ) ->
    reply_err t c (cmd ^ ": connection already has a role")
  | _, Some (cmd, stream), role -> (
    match (stream_owner t stream, role) with
    | owner, _ when owner == t -> handle_control t c req
    | owner, Pending -> route t owner c req
    | _, (Publisher _ | Subscriber _) ->
      reply_err t c
        (Printf.sprintf "%s: stream %s is pinned to another shard" cmd stream))
  | _, None, _ -> handle_control t c req

let handle_frame (t : t) (c : conn) (frame : Bytes.t) =
  Counters.incr t.counters "frames_in";
  if Bytes.length frame = 0 then protocol_reject t c "empty frame"
  else
    let kind = Bytes.get frame 0 in
    let is_stream_frame =
      Char.equal kind Endpoint.frame_descriptor
      || Char.equal kind Endpoint.frame_message
    in
    if is_stream_frame then
      match c.role with
      | Publisher p ->
        (* ingress token bucket: this frame is already decoded (charge
           it), and once the bucket is in debt stop reading from the
           connection until it refills — one hot publisher is paced
           before it can run the whole shard into its governor *)
        (match c.bucket with
        | Some b when not c.throttled ->
          let now = Reactor.now () in
          Token_bucket.take b ~now 1.0;
          if not (Token_bucket.ready b ~now) then begin
            c.throttled <- true;
            Counters.incr t.counters "ingress_throttled";
            Rconn.set_read_intent c.io false;
            let d = Float.max 0.001 (Token_bucket.delay b ~now) in
            ignore
              (Reactor.after t.reactor d (fun () ->
                   c.throttled <- false;
                   if Rconn.alive c.io then
                     match c.role with
                     | Publisher p when
                         publisher_read_ok t c
                         && not (stream_congested t p.stream) ->
                       Rconn.set_read_intent c.io true
                     | _ -> ()))
          end
        | Some _ | None -> ());
        let is_message = Char.equal kind Endpoint.frame_message in
        if is_message && p.skip_dup > 0 then begin
          (* a resuming publisher replaying offsets the store already
             holds: swallow — they were fanned out before the outage
             and stored replay serves late joiners *)
          p.skip_dup <- p.skip_dup - 1;
          Counters.incr t.counters "store_dup_skipped"
        end
        else begin
          let admit_t0 = Unix.gettimeofday () in
          (* the message's trace context, if any: stage spans below are
             recorded against it (sampled, or slow enough to force) *)
          let tctx = if is_message then p.ptrace else None in
          let admit_us =
            match tctx with Some _ -> Trace.now_us () | None -> 0
          in
          let send_fanout frame =
            match tctx with
            | None -> Link.send p.link frame
            | Some ctx ->
              let f0 = Trace.now_us () in
              t.cur_trace <- Some ctx;
              Fun.protect
                ~finally:(fun () -> t.cur_trace <- None)
                (fun () -> Link.send p.link frame);
              trace_span t ctx ~stage:"fanout_enqueue" ~stream:p.stream
                ~t0_us:f0
          in
          if is_message then Counters.incr t.counters "events_relayed";
          (match Hashtbl.find_opt t.stores p.stream with
          | Some st when is_message -> (
            let ap0 =
              match tctx with Some _ -> Trace.now_us () | None -> 0
            in
            match Store.append st frame with
            | off ->
              Counters.incr t.counters "store_appends";
              (match tctx with
              | Some ctx ->
                trace_span t ctx ~stage:"store_append" ~stream:p.stream
                  ~t0_us:ap0
              | None -> ());
              if p.acks then schedule_ack_flush t p.stream;
              (* thread the fresh offset through fan-out so subscriber
                 [skip_until] filters can see it without reframing *)
              t.fanout_offset <- off;
              Fun.protect
                ~finally:(fun () -> t.fanout_offset <- -1)
                (fun () -> send_fanout frame)
            | exception Store.Store_error msg ->
              (* refuse loudly: fanning out an unstored frame would let
                 the publisher believe it is durable *)
              Counters.incr t.counters "store_errors";
              protocol_reject t c
                (Printf.sprintf "store %s: append: %s" p.stream msg))
          | Some st ->
            (try ignore (Store.append_descriptor st frame)
             with Store.Store_error msg ->
               Counters.incr t.counters "store_errors";
               Log.err (fun m -> m "store %s: descriptor: %s" p.stream msg));
            send_fanout frame
          | None -> send_fanout frame);
          (* publish -> queue admission latency: the full cost of
             accepting this message (store append + fan-out enqueues) *)
          if is_message then begin
            Counters.observe t.counters "publish_admit_us"
              (int_of_float ((Unix.gettimeofday () -. admit_t0) *. 1e6));
            match tctx with
            | Some ctx ->
              trace_span t ctx ~stage:"publish_admit" ~stream:p.stream
                ~t0_us:admit_us
            | None -> ()
          end
        end
      | Pending -> protocol_reject t c "stream frame before PUBLISH"
      | Subscriber _ ->
        protocol_reject t c "subscriber connections are receive-only"
    else
      match c.role with
      | Publisher _ | Pending -> (
        match Proto.decode_request frame with
        | Ok req -> dispatch t c req
        | Error (Proto.Malformed msg) -> reply_err t c msg
        | Error (Proto.Unknown msg) -> protocol_reject t c msg)
      | Subscriber _ ->
        (* replies would interleave with relayed frames: refuse *)
        protocol_reject t c "subscriber connections are receive-only"

(** Unseal an inbound frame on an authenticated connection. A frame
    that fails authentication is counted and skipped; once the reject
    limit is reached the connection is doomed. [None] = drop frame. *)
let unseal (t : t) (c : conn) (frame : Bytes.t) : Bytes.t option =
  match c.mac with
  | None -> Some frame
  | Some st -> (
    match Macframe.open_next st frame with
    | payload -> Some payload
    | exception Macframe.Auth_error msg ->
      Counters.incr t.counters "frames_rejected";
      c.mac_rejects <- c.mac_rejects + 1;
      Log.warn (fun m ->
          m "conn %d: rejected frame (%d/%d): %s" c.cid c.mac_rejects
            t.mac_reject_limit msg);
      if c.mac_rejects >= t.mac_reject_limit then
        Rconn.doom c.io "authentication failures";
      None)

(** Inflate an inbound frame on a [comp=lz] connection — after
    {!unseal}, mirroring the outbound [seal (compress _)] order. A
    malformed block means the peer lost framing sync entirely (there is
    no per-frame tolerance to build on, unlike MAC rejects): doom. *)
let decompress_in (t : t) (c : conn) (frame : Bytes.t) : Bytes.t option =
  if not c.comp then Some frame
  else
    match Compress.decompress frame with
    | raw -> Some raw
    | exception Compress.Error msg ->
      Counters.incr t.counters "frames_rejected";
      Log.warn (fun m -> m "conn %d: corrupt compressed frame: %s" c.cid msg);
      Rconn.doom c.io "compression error";
      None

(* ------------------------------------------------------------------ *)
(* Reactor callbacks                                                    *)
(* ------------------------------------------------------------------ *)

(** One complete inbound frame. The callbacks consult [c.home] rather
    than a captured shard so a handed-off connection dispatches on its
    adopting shard. *)
let conn_frame (c : conn) (frame : Bytes.t) =
  let t = c.home in
  match Option.bind (unseal t c frame) (decompress_in t c) with
  | None -> ()
  | Some frame -> (
    try handle_frame t c frame with
    | Frame.Frame_error m | Broker.Unknown_stream m ->
      Counters.incr t.counters "frames_rejected";
      Rconn.doom c.io m
    | Link.Closed -> ()
    (* subscriber died mid-fanout; its own doom is already set *))

let conn_closed (c : conn) (reason : string) =
  let t = c.home in
  clear_grace c;
  (* whatever was queued and unwritten dies with the connection *)
  if c.gov_debited > 0 then begin
    Governor.credit t.governor c.gov_debited;
    c.gov_debited <- 0
  end;
  Hashtbl.remove t.conns c.cid;
  (match c.role with
  | Subscriber s ->
    s.unsubscribe ();
    maybe_resume_stream t s.stream
  | Publisher _ | Pending -> ());
  if t.state = Draining then check_drain_done t;
  Log.debug (fun m -> m "conn %d closed (%s)" c.cid reason)

(** The write queue moved: a recovered consumer stops its eviction
    clock and lifts any [Block] pause; during a drain, an emptied queue
    may complete it. *)
let conn_progress (c : conn) =
  let t = c.home in
  if Rconn.queued_droppable c.io < t.max_queue then begin
    clear_grace c;
    if c.congesting then begin
      c.congesting <- false;
      match c.role with
      | Subscriber s -> maybe_resume_stream t s.stream
      | Publisher _ | Pending -> ()
    end
  end;
  (* a draining write queue is what paces chunked stored replay *)
  (match c.role with
  | Subscriber { replay = Some _; _ } -> pump_replay t c
  | Subscriber _ | Publisher _ | Pending -> ());
  (* the traced frame (and everything queued behind it) is fully on the
     wire: close out its end-to-end [deliver] span *)
  (match c.trace_mark with
  | Some tm when Rconn.queued c.io = 0 ->
    trace_mark_span t tm ~stage:"deliver";
    c.trace_mark <- None
  | Some _ | None -> ());
  if t.state = Draining && Rconn.queued c.io = 0 then check_drain_done t

(** Wire an accepted socket into shard [t] (loop-thread only; the
    cluster acceptor reaches this through {!Reactor.inject}). *)
let adopt_fd (t : t) (fd : Unix.file_descr) =
  if t.state <> Running then (
    try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    (match t.sndbuf with
    | Some n -> (
      try Unix.setsockopt_int fd Unix.SO_SNDBUF n
      with Unix.Unix_error _ -> ())
    | None -> ());
    let cid = t.next_cid in
    t.next_cid <- cid + t.cid_stride;
    let cell = ref None in
    let the_conn () = Option.get !cell in
    let io =
      Rconn.attach t.reactor fd
        ~on_frame:(fun _ frame -> conn_frame (the_conn ()) frame)
        ~on_close:(fun _ reason -> conn_closed (the_conn ()) reason)
        ~on_progress:(fun _ -> conn_progress (the_conn ()))
        ~on_decode_error:(fun _ msg ->
          (* length-framing corruption is unrecoverable: count the
             malformed-frame disconnect alongside MAC rejects *)
          let c = the_conn () in
          Counters.incr c.home.counters "frames_rejected";
          Log.warn (fun m -> m "conn %d: %s" c.cid msg))
        ~on_bytes:(fun _ dir n ->
          let c = the_conn () in
          match dir with
          | `In -> Counters.incr c.home.counters ~by:n "bytes_in"
          | `Out ->
            Counters.incr c.home.counters ~by:n "bytes_out";
            credit_conn c n;
            (* first write after a traced enqueue: the [flush] span —
               time from fan-out to bytes reaching the socket *)
            (match c.trace_mark with
            | Some tm when not tm.tm_flushed ->
              tm.tm_flushed <- true;
              trace_mark_span c.home tm ~stage:"flush"
            | Some _ | None -> ()))
        ()
    in
    let bucket =
      match t.ingress with
      | Some (rate, burst) ->
        Some (Token_bucket.create ~rate ~burst ~now:(Reactor.now ()))
      | None -> None
    in
    let c =
      { cid; io; creds = []; greeted = false; role = Pending; over_since = None
      ; grace_timer = None; congesting = false; mac = None; mac_rejects = 0
      ; comp = false; gov_debited = 0; throttled = false; bucket
      ; trace_mark = None; home = t }
    in
    cell := Some c;
    Hashtbl.replace t.conns cid c;
    Counters.incr t.counters "connections";
    Log.debug (fun m -> m "conn %d accepted (shard %d)" cid t.shard_id)
  end

(* ------------------------------------------------------------------ *)
(* Construction and the loop                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Replication identity                                                 *)
(* ------------------------------------------------------------------ *)

let gen_relay_id () : string =
  let seed =
    Printf.sprintf "%.9f:%d:relay-id" (Unix.gettimeofday ()) (Unix.getpid ())
  in
  String.sub (Omf_util.Sha256.hex (Omf_util.Sha256.digest seed)) 0 12

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** A store-backed relay's identity must survive restarts — otherwise
    every stream it owns would look foreign (read-only) to its own
    successor — so an unconfigured id is minted once and kept in
    [<root>/relay-id]. Memory-only relays get a fresh random id. *)
let resolve_relay_id ?relay_id (store : Store.config option) : string =
  match (relay_id, store) with
  | Some id, _ -> id
  | None, None -> gen_relay_id ()
  | None, Some cfg -> (
    let path = Filename.concat cfg.Store.root "relay-id" in
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> String.trim (input_line ic))
    with
    | id when id <> "" -> id
    | _ | (exception _) ->
      let id = gen_relay_id () in
      (try
         mkdir_p cfg.Store.root;
         let oc = open_out path in
         output_string oc (id ^ "\n");
         close_out oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      id)

let create_shard ~host ~port ~relay_id ~policy ~max_queue ~evict_grace
    ~sndbuf ~auth_keys ~mac_reject_limit ~drain_s ~governor ~ingress ~trace
    ~shard_id ~cid_stride ~shared ~store () : t =
  let gov = Governor.create governor in
  let t =
    { host; port; relay_id; policy; max_queue; evict_grace; sndbuf; auth_keys
    ; mac_reject_limit; drain_default_s = drain_s; governor = gov; ingress
    ; trace = Option.map (fun s -> Trace.collector ~shard:shard_id s) trace
    ; stream_trace = Hashtbl.create 8; cur_trace = None
    ; lsock = None; lreg = None
    ; reactor = Reactor.create (); broker = Broker.create ()
    ; conns = Hashtbl.create 64; counters = Counters.create (); shard_id
    ; cid_stride; shared; store_cfg = store; stores = Hashtbl.create 8
    ; adverts = Hashtbl.create 8
    ; fanout_offset = -1
    ; wire_cache_body = Bytes.empty
    ; wire_cache = Frame.wire [ Slice.of_bytes Bytes.empty ]
    ; comp_cache_body = Bytes.empty
    ; comp_cache_blk = Bytes.empty
    ; comp_cache_wire = Frame.wire [ Slice.of_bytes Bytes.empty ]
    ; comp_scratch = Compress.scratch ()
    ; pending_acks = Hashtbl.create 8
    ; ack_flush_scheduled = false; store_timer = None; gauge_timer = None
    ; next_cid = shard_id + 1; state = Running
    ; drain_timer = None; stop_flag = false }
  in
  Governor.on_transition gov (fun prev next ->
      on_governor_transition t prev next);
  Counters.set t.counters "governor_health" 0;
  t

let install_listener (t : t) (lsock : Unix.file_descr) =
  Unix.set_nonblock lsock;
  t.lsock <- Some lsock;
  let rec accept_all () =
    match Unix.accept ~cloexec:true lsock with
    | fd, _ ->
      adopt_fd t fd;
      accept_all ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  t.lreg <-
    Some
      (Reactor.register t.reactor lsock ~on_readable:accept_all
         ~on_writable:ignore)

(** Reopen every stored stream assigned to this shard: recover the log
    (torn-tail truncation happens here), re-advertise the persisted
    schema and replay the stored descriptor frames into the broker's
    cache, so late joiners can decode history without the original
    publisher. Runs before the loop (single-threaded). *)
let recover_streams (t : t) (streams : string list) =
  List.iter
    (fun stream ->
      match store_handle t stream with
      | None -> ()
      | Some st ->
        (match Store.schema st with
        | None -> ()
        | Some schema -> (
          match Broker.advertise t.broker ~stream ~schema with
          | () ->
            (* restore the advertisement metadata — registry binding
               and origin/epoch tag — exactly as last persisted, so a
               mirrored stream stays read-only across the restart and
               registry-bound consumers resolve as before *)
            (match Store.meta st with
            | [] -> ()
            | kvs ->
              Hashtbl.replace t.adverts stream kvs;
              Counters.incr t.counters "advert_meta_recovered");
            (match Broker.publisher_link t.broker ~stream with
            | link ->
              List.iter (fun d -> Link.send link d) (Store.descriptors st)
            | exception Broker.Unknown_stream _ -> ())
          | exception Omf_xschema.Schema.Schema_error msg ->
            Log.err (fun m ->
                m "store %s: recovered schema rejected: %s" stream msg)));
        Counters.incr t.counters "store_streams_recovered";
        Log.info (fun m ->
            m "store: recovered stream %s at offset %d (%d segment%s, \
               durable %d)"
              stream (Store.tail st) (Store.segments st)
              (if Store.segments st = 1 then "" else "s")
              (Store.durable st))
      | exception Store.Store_error msg ->
        Counters.incr t.counters "store_errors";
        Log.err (fun m -> m "store %s: recovery failed: %s" stream msg))
    streams

let create ?(host = "127.0.0.1") ?(port = 0) ?relay_id ?(policy = Block)
    ?(max_queue = 256) ?(evict_grace_s = 1.0) ?sndbuf ?(auth_keys = [])
    ?(mac_reject_limit = 3) ?(drain_s = 2.0)
    ?(governor = Governor.config ~budget:0 ()) ?ingress ?trace ?store () : t =
  let lsock, bound_port = Tcp.listener ~host ~port () in
  let relay_id = resolve_relay_id ?relay_id store in
  let t =
    create_shard ~host ~port:bound_port ~relay_id ~policy ~max_queue
      ~evict_grace:evict_grace_s ~sndbuf ~auth_keys ~mac_reject_limit
      ~drain_s ~governor ~ingress ~trace ~shard_id:0 ~cid_stride:1
      ~shared:None ~store ()
  in
  install_listener t lsock;
  (match store with
  | Some cfg -> recover_streams t (Store.streams cfg)
  | None -> ());
  t

(** Snapshot of the relay's recorded trace spans, oldest first (empty
    when tracing is disabled). Safe from any thread. *)
let trace_spans (t : t) : Trace.span list =
  match t.trace with None -> [] | Some col -> Trace.spans col

(** Run the loop until {!request_shutdown} (then drain) completes. *)
let run (t : t) : unit =
  (match t.lsock with
  | Some _ ->
    Log.info (fun m ->
        m "listening on %s:%d (policy %s, max queue %d%s)" t.host t.port
          (policy_to_string t.policy) t.max_queue
          (match t.store_cfg with
          | Some cfg ->
            Printf.sprintf ", store %s fsync %s" cfg.Store.root
              (Store.fsync_policy_to_string cfg.Store.fsync)
          | None -> ""))
  | None -> Log.debug (fun m -> m "shard %d loop running" t.shard_id));
  (match t.store_cfg with
  | Some cfg ->
    let period =
      match cfg.Store.fsync with Store.Interval s -> s | _ -> 0.1
    in
    store_tick t period
  | None -> ());
  gauge_tick t;
  Reactor.set_on_tick t.reactor (fun () ->
      if t.stop_flag && t.state = Running then begin_drain t);
  Reactor.run t.reactor;
  Reactor.dispose t.reactor

(* ------------------------------------------------------------------ *)
(* Sharded cluster                                                      *)
(* ------------------------------------------------------------------ *)

(** N relay shards — one reactor loop per domain — behind a single
    blocking acceptor thread that deals accepted sockets out
    round-robin. The first ADVERTISE/PUBLISH/SUBSCRIBE naming a stream
    pins it to the shard that received it; a connection landing on the
    wrong shard migrates there before taking a role, so every frame of
    a stream flows through exactly one loop and per-stream order is
    what a standalone relay gives. *)
module Cluster = struct
  type relay = t

  type t = {
    lsock : Unix.file_descr;
    cport : int;
    shards : relay array;
    mutable acceptor : Thread.t option;
    mutable domains : unit Domain.t array;
    mutable stopped : bool;
    mutable joined : bool;
  }

  let start ?(host = "127.0.0.1") ?(port = 0) ?relay_id ?(shards = 1)
      ?(policy = Block) ?(max_queue = 256) ?(evict_grace_s = 1.0) ?sndbuf
      ?(auth_keys = []) ?(mac_reject_limit = 3) ?(drain_s = 2.0)
      ?(governor = Governor.config ~budget:0 ()) ?ingress ?trace ?store () :
      t =
    if shards < 1 then invalid_arg "Cluster.start: shards must be >= 1";
    let lsock, bound_port = Tcp.listener ~host ~port () in
    let relay_id = resolve_relay_id ?relay_id store in
    let shared =
      { pins_mu = Mutex.create (); pins = Hashtbl.create 32; peers = [||] }
    in
    let arr =
      Array.init shards (fun i ->
          create_shard ~host ~port:bound_port ~relay_id ~policy ~max_queue
            ~evict_grace:evict_grace_s ~sndbuf ~auth_keys ~mac_reject_limit
            ~drain_s ~governor ~ingress ~trace ~shard_id:i ~cid_stride:shards
            ~shared:(Some shared) ~store ())
    in
    shared.peers <- arr;
    let cl =
      { lsock; cport = bound_port; shards = arr; acceptor = None
      ; domains = [||]; stopped = false; joined = false }
    in
    (* Recover stored streams before any loop runs: pin each stream to
       a shard by name hash (a restart reproduces the same pinning, and
       per-shard store handles stay single-threaded), then let that
       shard reopen its logs. *)
    (match store with
    | Some cfg ->
      let per_shard = Array.make shards [] in
      List.iter
        (fun stream ->
          let sid = Hashtbl.hash stream mod shards in
          Hashtbl.replace shared.pins stream sid;
          per_shard.(sid) <- stream :: per_shard.(sid))
        (Store.streams cfg);
      Array.iteri (fun i streams -> recover_streams arr.(i) streams) per_shard
    | None -> ());
    cl.domains <- Array.map (fun s -> Domain.spawn (fun () -> run s)) arr;
    let acceptor () =
      let next = ref 0 in
      let continue = ref true in
      (* Governor-aware dealing (doc/OVERLOAD.md): scan the round-robin
         order but skip shards currently Overloaded, so a drowning loop
         is not handed fresh connections while its healthy siblings
         have room. The health read crosses threads unlocked — it is a
         monotone-ish hint, and a stale read only costs one connection
         landing on a shard that was recovering anyway. When every
         shard is overloaded the plain round-robin pick stands (the
         governor's admission control sheds work from there). *)
      let pick () =
        let first = !next mod shards in
        incr next;
        let rec scan k =
          if k = shards then arr.(first)
          else
            let cand = arr.((first + k) mod shards) in
            if Governor.health cand.governor <> Governor.Overloaded then begin
              if k > 0 then
                Counters.incr cand.counters ~by:k "accept_deferred";
              cand
            end
            else scan (k + 1)
        in
        scan 0
      in
      while !continue do
        match Unix.accept ~cloexec:true lsock with
        | fd, _ ->
          let shard = pick () in
          Reactor.inject shard.reactor (fun () -> adopt_fd shard fd)
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | exception Unix.Unix_error _ ->
          (* listener shut down (or died): stop dealing *)
          continue := false
      done
    in
    cl.acceptor <- Some (Thread.create acceptor ());
    Log.info (fun m ->
        m "cluster listening on %s:%d (%d shard%s, policy %s)" host
          bound_port shards
          (if shards = 1 then "" else "s")
          (policy_to_string policy));
    cl

  let port (cl : t) = cl.cport
  let shard_count (cl : t) = Array.length cl.shards
  let relay_id (cl : t) = cl.shards.(0).relay_id

  (** Cluster-wide counter totals (per-shard counters summed). Broker
      gauges are per-shard state and are only reported over the wire
      (STATS is answered by the shard that owns the connection). *)
  let stats (cl : t) : (string * int) list =
    Counters.merged
      (Array.to_list (Array.map (fun s -> s.counters) cl.shards))

  (** Every shard's recorded trace spans, merged and time-ordered. *)
  let trace_spans (cl : t) : Trace.span list =
    Array.to_list cl.shards
    |> List.concat_map (fun (s : relay) ->
           match s.trace with None -> [] | Some col -> Trace.spans col)
    |> List.sort (fun a b ->
           compare a.Trace.sp_start_us b.Trace.sp_start_us)

  (** Signal-handler safe: unblock the acceptor and ask every shard to
      drain. *)
  let request_shutdown (cl : t) =
    cl.stopped <- true;
    (try Unix.shutdown cl.lsock Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Array.iter request_shutdown cl.shards

  (** Join the acceptor and every shard domain (call after
      {!request_shutdown}). *)
  let wait (cl : t) =
    if not cl.joined then begin
      cl.joined <- true;
      Option.iter Thread.join cl.acceptor;
      Array.iter Domain.join cl.domains;
      try Unix.close cl.lsock with Unix.Unix_error _ -> ()
    end

  let stop (cl : t) =
    request_shutdown cl;
    wait cl
end

(* ------------------------------------------------------------------ *)
(* Hosted convenience                                                   *)
(* ------------------------------------------------------------------ *)

type handle = { relay : t; thread : Thread.t }

(** [start ()] runs a relay loop in a background thread (ephemeral port
    by default) — the embedding used by tests and benchmarks. *)
let start ?host ?port ?relay_id ?policy ?max_queue ?evict_grace_s ?sndbuf
    ?auth_keys ?mac_reject_limit ?drain_s ?governor ?ingress ?trace ?store
    () : handle =
  let relay =
    create ?host ?port ?relay_id ?policy ?max_queue ?evict_grace_s ?sndbuf
      ?auth_keys ?mac_reject_limit ?drain_s ?governor ?ingress ?trace ?store
      ()
  in
  { relay; thread = Thread.create run relay }

let relay (h : handle) : t = h.relay

(** [stop h] requests a graceful drain and waits for the loop to end. *)
let stop (h : handle) : unit =
  request_shutdown h.relay;
  Thread.join h.thread
(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

(** Blocking client for the relay protocol. One connection carries one
    role: after {!Client.publish} the link is an
    {!Omf_transport.Endpoint.Sender} channel, after {!Client.subscribe}
    it is receive-only. *)
module Client = struct
  exception Error of string

  exception Busy of { retry_ms : int }
  (** The relay shed the command under overload (PROTOCOLS.md §16).
      Retryable: wait about [retry_ms] and re-issue the same command on
      the {e same} connection — the relay kept it open on purpose. *)

  type comp_totals = { mutable raw_bytes : int; mutable wire_bytes : int }
  (** Bytes through the compression wrapper, both directions: frame
      bodies before compression vs blocks on the wire. *)

  type t = { link : Link.t; comp : comp_totals option }

  (* The client-side twin of the relay's negotiated frame mode: blocks
     out, inflated frames in. Stacked OUTSIDE {!Macframe.wrap} so the
     wire order matches the relay — seal (compress body). *)
  let compress_wrap (totals : comp_totals) (link : Link.t) : Link.t =
    (* owned by the sending side of this connection only; recv never
       compresses, so one scratch is race-free even when send and recv
       run on different threads *)
    let ws = Compress.scratch () in
    { Link.send =
        (fun msg ->
          let blk = Compress.compress ~scratch:ws msg in
          totals.raw_bytes <- totals.raw_bytes + Bytes.length msg;
          totals.wire_bytes <- totals.wire_bytes + Bytes.length blk;
          Link.send link blk)
    ; recv =
        (fun () ->
          match Link.recv link with
          | None -> None
          | Some blk -> (
            match Compress.decompress blk with
            | raw ->
              totals.raw_bytes <- totals.raw_bytes + Bytes.length raw;
              totals.wire_bytes <- totals.wire_bytes + Bytes.length blk;
              Some raw
            | exception Compress.Error msg ->
              raise (Error ("compression: " ^ msg))))
    ; close = (fun () -> Link.close link)
    }

  (* every transport-level failure surfaces as Client.Error with a
     readable message; raw Unix_error / Tcp_error never escape *)
  let reraise (context : string) = function
    | Error m -> raise (Error m)
    | Link.Closed -> raise (Error (context ^ ": connection closed"))
    | Link.Timeout -> raise (Error (context ^ ": timeout"))
    | Tcp.Tcp_error m | Frame.Frame_error m ->
      raise (Error (context ^ ": " ^ m))
    | Macframe.Auth_error m ->
      raise (Error (context ^ ": authentication: " ^ m))
    | End_of_file -> raise (Error (context ^ ": connection closed"))
    | Unix.Unix_error (e, fn, _) ->
      raise (Error (Printf.sprintf "%s: %s: %s" context fn (Unix.error_message e)))
    | e -> raise e

  let rpc (t : t) (req : Proto.request) : Proto.reply =
    match
      Link.send t.link (Proto.encode_request req);
      Link.recv t.link
    with
    | None -> raise (Error "relay closed the connection")
    | Some r -> (
      match Proto.decode_reply r with
      | Ok reply -> reply
      | Error _ -> raise (Error "malformed reply"))
    | exception e -> reraise "relay rpc" e

  (* the OK body of [req]: error and busy replies raise *)
  let call (t : t) (req : Proto.request) : string =
    match rpc t req with
    | Proto.Ok body -> body
    | Proto.Err msg -> raise (Error msg)
    | Proto.Busy ms -> raise (Busy { retry_ms = (if ms > 0 then ms else 250) })
    | Proto.Ack _ -> raise (Error "malformed reply")

  let decoded (r : ('a, string) result) : 'a =
    match r with Ok v -> v | Error msg -> raise (Error ("relay reply: " ^ msg))

  (** [connect ~port ()] dials and HELLOs. With [?auth:(key_id, key)]
      the HELLO requests HMAC frame mode; the handshake itself is
      plaintext and every later frame is sealed. With [~compress:true]
      the HELLO offers [comp=lz] (PROTOCOLS.md §18); if the relay
      echoes it in the banner every later frame in both directions is
      an LZ block — an old relay simply doesn't echo, and the
      connection proceeds uncompressed (check {!compressed}). Failures
      — unreachable port, handshake timeout, an ['e'] reply — raise
      {!Error} with the reason, and the socket is closed on every error
      path. *)
  let connect ?(host = "127.0.0.1") ~port ?(creds = []) ?auth
      ?(compress = false) ?connect_timeout_s ?io_timeout_s () : t =
    let link =
      try Tcp.connect ~host ~port ?connect_timeout_s ?io_timeout_s ()
      with e -> reraise (Printf.sprintf "relay connect %s:%d" host port) e
    in
    try
      let hello_creds =
        (if compress then [ ("comp", "lz") ] else [])
        @
        match auth with
        | None -> creds
        | Some (key_id, _) ->
          creds @ [ ("auth", "hmac"); ("key-id", key_id) ]
      in
      let granted =
        Proto.decode_banner
          (call { link; comp = None } (Proto.Hello hello_creds))
      in
      (* the relay must have granted the auth mode we asked for *)
      if auth <> None && not granted.Proto.mac then
        raise (Error "relay did not negotiate authenticated framing");
      let link =
        match auth with
        | None -> link
        | Some (_, key) -> Macframe.wrap (Macframe.state ~key) link
      in
      if compress && granted.Proto.comp then begin
        let totals = { raw_bytes = 0; wire_bytes = 0 } in
        { link = compress_wrap totals link; comp = Some totals }
      end
      else { link; comp = None }
    with e ->
      (* no fd leak on handshake failure *)
      (try Link.close link with _ -> ());
      reraise "relay handshake" e

  let compressed (t : t) : bool = t.comp <> None

  (** Raw/wire byte totals through the negotiated compression wrapper
      (both directions); [None] when the connection is uncompressed. *)
  let comp_totals (t : t) : (int * int) option =
    match t.comp with
    | None -> None
    | Some c -> Some (c.raw_bytes, c.wire_bytes)

  (** [advertise t ~stream ~schema] declares the stream. [?meta] lines
      ride along: a registry binding (PROTOCOLS.md §14) that [meta=1]
      subscribers get back, or — from a mirror — the source's metadata
      verbatim, [origin]/[epoch] tag included (§15). *)
  let advertise ?(meta = []) (t : t) ~(stream : string) ~(schema : string) :
      unit =
    ignore (call t (Proto.Advertise { stream; meta; schema }))

  let stats (t : t) : (string * int) list =
    Proto.decode_stats (call t Proto.Stats)

  (* plain, acked and mirror PUBLISH: the typed watermark reply *)
  let publish_with ?trace ?mirror ~acks (t : t) stream =
    decoded
      (Proto.decode_published
         (call t (Proto.Publish { stream; acks; mirror; trace })))

  (** [publish t ~stream] switches the connection into publisher mode
      and returns the raw link: drive it with
      {!Omf_transport.Endpoint.Sender}. [?trace] attaches a trace
      context to the stream (PROTOCOLS.md §17): a tracing-enabled relay
      adopts it instead of head-sampling its own. *)
  let publish ?trace (t : t) ~(stream : string) : Link.t =
    ignore (publish_with ?trace ~acks:false t stream);
    t.link

  (* SUBSCRIBE and DESCRIBE: the typed schema reply *)
  let schema_reply ~offset ~meta (t : t) (req : Proto.request) =
    decoded (Proto.decode_schema_reply ~offset ~meta (call t req))

  (** [subscribe t ~stream] returns the (credential-scoped) stream
      schema and the raw link now carrying descriptor/message frames. *)
  let subscribe (t : t) ~(stream : string) : string * Link.t =
    (call t (Proto.Subscribe { stream; from = None; meta = false }), t.link)

  (** [subscribe_meta t ~stream] is {!subscribe} plus the stream's
      advertised registry-binding metadata — [("subject", _)],
      [("version", _)], [("fingerprint", _)] — when the advertiser
      supplied any (empty list otherwise). *)
  let subscribe_meta (t : t) ~(stream : string) :
      (string * string) list * string * Link.t =
    let r =
      schema_reply ~offset:false ~meta:true t
        (Proto.Subscribe { stream; from = None; meta = true })
    in
    (r.Proto.meta, r.Proto.schema, t.link)

  (** [publish_acked t ~stream] enters publisher mode requesting
      durability acks (PROTOCOLS.md §13). Against a store-backed relay
      the reply carries the stream's durable watermark — returned as
      [Some durable]; the relay then sends a ['k' durable] frame on
      this link whenever the watermark advances. [None] means the relay
      is memory-only and will never ack. *)
  let publish_acked ?trace (t : t) ~(stream : string) : int option * Link.t =
    let w = publish_with ?trace ~acks:true t stream in
    (Option.map (fun w -> w.Proto.durable) w, t.link)

  (** [subscribe_from t ~stream ~from] subscribes with stored replay
      (PROTOCOLS.md §13): delivery starts at offset [from] (clamped up
      past retention), or at the live tail when [from] is negative.
      Returns [(Some start, schema, link)] where [start] is the offset
      of the first message frame the link will carry; [(None, …)] when
      the relay is memory-only and offsets are not tracked. *)
  let subscribe_from (t : t) ~(stream : string) ~(from : int) :
      int option * string * Link.t =
    let r =
      schema_reply ~offset:true ~meta:false t
        (Proto.Subscribe { stream; from = Some from; meta = false })
    in
    (r.Proto.offset, r.Proto.schema, t.link)

  (** [list_streams t] names every stream the relay (all shards of a
      cluster) currently hosts, sorted. *)
  let list_streams (t : t) : string list =
    Proto.decode_list (call t Proto.List)

  (** [describe t ~stream] returns the stream's advertisement metadata
      — always including its [origin]/[epoch] replication tag
      (PROTOCOLS.md §15) — and its (credential-scoped) schema, without
      changing the connection's role. *)
  let describe (t : t) ~(stream : string) : (string * string) list * string =
    let r = schema_reply ~offset:false ~meta:true t (Proto.Describe stream) in
    (r.Proto.meta, r.Proto.schema)

  (** [promote t ~stream] transfers write ownership of a mirrored
      stream to the relay (PROTOCOLS.md §15): its origin becomes the
      relay's id with a bumped epoch, returned here. Idempotent on
      streams the relay already owns. *)
  let promote (t : t) ~(stream : string) : int =
    decoded (Proto.decode_epoch (call t (Proto.Promote stream)))

  (** [publish_mirror t ~stream ~origin ~epoch] enters publisher mode
      as a replication link (PROTOCOLS.md §15): accepted only while
      [(origin, epoch)] matches the relay's record for the stream.
      [Some (durable, tail)] against a store-backed relay — the mirror
      resumes pumping source offsets from [tail]; [None] against a
      memory-only relay (live-only replication). *)
  let publish_mirror ?trace (t : t) ~(stream : string) ~(origin : string)
      ~(epoch : int) : (int * int) option * Link.t =
    match publish_with ?trace ~mirror:(origin, epoch) ~acks:false t stream with
    | Some { Proto.durable; tail = Some tail } -> (Some (durable, tail), t.link)
    | Some _ | None -> (None, t.link)

  let close (t : t) = try Link.close t.link with _ -> ()
end

(* ------------------------------------------------------------------ *)
(* A fully wired remote consumer (mirror of Broker.attach_consumer)     *)
(* ------------------------------------------------------------------ *)

module Catalog = Omf_xml2wire.Catalog

type consumer = {
  client : Client.t;
  catalog : Catalog.t;
  endpoint : Endpoint.Receiver.t;
  schema : string;  (** the scoped schema the relay served *)
}

(** [attach_consumer ~port ~stream abi] connects, subscribes, registers
    the served (scoped) schema in a fresh catalog for [abi] and wraps
    the link in an endpoint receiver. *)
let attach_consumer ?host ~port ?creds ?auth ?compress ~(stream : string)
    (abi : Omf_machine.Abi.t) : consumer =
  let client = Client.connect ?host ~port ?creds ?auth ?compress () in
  let schema, link =
    try Client.subscribe client ~stream
    with e ->
      Client.close client;
      raise e
  in
  let catalog = Catalog.create abi in
  ignore
    (Omf_xml2wire.Xml2wire.register_schema ~source:("relay:" ^ stream) catalog
       schema);
  let endpoint =
    Endpoint.Receiver.create link
      (Catalog.registry catalog)
      (Omf_machine.Memory.create abi)
  in
  { client; catalog; endpoint; schema }

(** Blocking receive of the next decoded event ([None] = relay closed
    the stream). *)
let recv (c : consumer) : (Omf_pbio.Format.t * Omf_pbio.Value.t) option =
  Endpoint.Receiver.recv_value c.endpoint

let close_consumer (c : consumer) : unit = Client.close c.client

(* ------------------------------------------------------------------ *)
(* Fault-tolerant sessions                                              *)
(* ------------------------------------------------------------------ *)

module Pbio = Omf_pbio.Pbio
module Format = Omf_pbio.Format
module Value = Omf_pbio.Value
module Prng = Omf_util.Prng
module Sha256 = Omf_util.Sha256

(** Fault-tolerant relay sessions: {!Client} plus automatic
    reconnect/replay, mirroring the metadata layer's fallback-chain
    philosophy at the transport layer — a dropped TCP connection
    degrades to a retry loop instead of killing the consumer.

    A {e subscriber session} detects a broken link (close, reset, MAC
    failure, deadline), reconnects under a retry budget with
    exponential backoff + jitter, replays its HELLO/SUBSCRIBE state,
    and relies on the relay's cached descriptor replay to stay
    decodable; descriptor frames already learned are deduplicated by
    content digest, so a relayd restart cannot corrupt or re-register
    formats.

    A {e publisher session} replays HELLO/ADVERTISE/PUBLISH on
    reconnect, re-announces format descriptors on the fresh connection
    (the relay restarts empty), and buffers data frames that could not
    be written — up to a bounded in-flight window; past the window,
    {!Overflow} is raised rather than silently dropping or blocking
    forever. *)
module Session = struct
  exception Gave_up of string
  (** The reconnect budget for one outage was exhausted. *)

  exception Overflow of string
  (** The publisher's bounded in-flight window is full while the relay
      is unreachable. *)

  type config = {
    host : string;
    port : int;
    creds : (string * string) list;
    auth : (string * string) option;  (** [(key-id, secret)] *)
    compress : bool;
        (** offer [comp=lz] on every (re)connect; negotiated down
            against a relay that doesn't speak it *)
    max_attempts : int;  (** reconnect attempts per outage *)
    base_delay_s : float;  (** first backoff step *)
    max_delay_s : float;  (** backoff cap *)
    connect_timeout_s : float option;
    io_timeout_s : float option;
    jitter_seed : int64;  (** deterministic jitter (tests) *)
  }

  let config ?(host = "127.0.0.1") ?(creds = []) ?auth ?(compress = false)
      ?(max_attempts = 10) ?(base_delay_s = 0.05) ?(max_delay_s = 2.0)
      ?(connect_timeout_s = 5.0) ?io_timeout_s ?(jitter_seed = 1L) ~port () :
      config =
    { host; port; creds; auth; compress; max_attempts; base_delay_s
    ; max_delay_s; connect_timeout_s = Some connect_timeout_s; io_timeout_s
    ; jitter_seed }

  (* attempt k (0-based) sleeps min(cap, base * 2^k) scaled into
     [0.5, 1.0) — full-jitter halves thundering-herd resubscription
     after a relayd restart while keeping tests deterministic via the
     seeded PRNG *)
  let backoff_delay (cfg : config) rng attempt =
    let d = cfg.base_delay_s *. (2.0 ** float_of_int attempt) in
    Float.min cfg.max_delay_s d *. (0.5 +. (0.5 *. Prng.float rng))

  let connect_client ?(reconnect = false) (cfg : config) : Client.t =
    let creds =
      if reconnect then cfg.creds @ [ ("omf-reconnect", "1") ] else cfg.creds
    in
    Client.connect ~host:cfg.host ~port:cfg.port ~creds ?auth:cfg.auth
      ~compress:cfg.compress ?connect_timeout_s:cfg.connect_timeout_s
      ?io_timeout_s:cfg.io_timeout_s ()

  let transient = function
    | Client.Error _ | Link.Closed | Link.Timeout | End_of_file
    | Tcp.Tcp_error _ | Frame.Frame_error _ | Macframe.Auth_error _
    | Unix.Unix_error _ ->
      true
    | _ -> false

  (** Reconnect and replay session state: dial a fresh connection and
      run [f] (which re-issues SUBSCRIBE or ADVERTISE/PUBLISH) against
      it, retrying transient failures under the budget. *)
  let with_retries (cfg : config) rng ~(what : string) (f : Client.t -> 'a) :
      'a =
    let rec go attempt =
      if attempt >= cfg.max_attempts then
        raise
          (Gave_up
             (Printf.sprintf "%s: gave up after %d reconnect attempts" what
                cfg.max_attempts));
      Thread.delay (backoff_delay cfg rng attempt);
      match
        let client = connect_client ~reconnect:true cfg in
        match f client with
        | v -> Ok v
        | exception e ->
          Client.close client;
          Error e
      with
      | Ok v -> v
      | Error e | exception e ->
        if transient e then begin
          Log.debug (fun m ->
              m "%s: reconnect attempt %d failed: %s" what (attempt + 1)
                (Printexc.to_string e));
          go (attempt + 1)
        end
        else raise e
    in
    go 0

  (** A [busy] reply is not an outage: the relay is alive and asked us
      to slow down (PROTOCOLS.md §16). Sleep the suggested [retry_ms]
      (full jitter, like {!backoff_delay}) and retry [f] on the {e
      same} connection — reconnecting would only add handshake load to
      an overloaded relay. [on_busy] is called once per wait (session
      counters). The attempt budget is [max_attempts], after which
      {!Gave_up} is raised. *)
  let with_busy_backoff (cfg : config) rng ~(what : string)
      ?(on_busy = fun () -> ()) (f : unit -> 'a) : 'a =
    let rec go attempt =
      match f () with
      | v -> v
      | exception Client.Busy { retry_ms } ->
        if attempt + 1 >= Stdlib.max 1 cfg.max_attempts then
          raise
            (Gave_up
               (Printf.sprintf
                  "%s: relay still overloaded after %d busy retries" what
                  (attempt + 1)));
        on_busy ();
        let d =
          float_of_int retry_ms /. 1000. *. (0.5 +. (0.5 *. Prng.float rng))
        in
        Log.debug (fun m ->
            m "%s: relay busy, retrying in %.0f ms (attempt %d)" what
              (d *. 1000.) (attempt + 1));
        Thread.delay d;
        go (attempt + 1)
    in
    go 0

  (* ---------------------------------------------------------------- *)
  (* Subscriber sessions                                                *)
  (* ---------------------------------------------------------------- *)

  type subscriber = {
    s_cfg : config;
    s_stream : string;
    s_catalog : Catalog.t;
    s_pbio : Pbio.Receiver.t;
    s_seen : (string, unit) Hashtbl.t;
        (** digests of descriptor blobs already learned — replayed
            descriptors after a reconnect are skipped, not re-registered *)
    s_rng : Prng.t;
    mutable s_client : Client.t option;
    mutable s_link : Link.t option;
    mutable s_schema : string;
    mutable s_next : int;
        (** store offset of the next expected message frame; [-1] when
            the relay does not track offsets (memory-only) *)
    mutable s_reconnects : int;
    mutable s_busy_waits : int;
        (** [busy]-triggered backoff sleeps — overload slowdowns, not
            outages; reconnect counters stay untouched *)
    mutable s_trace : Trace.ctx option;
        (** the stream's trace context as served by DESCRIBE at
            subscribe time ([want_trace] only) *)
    mutable s_closed : bool;
  }

  (** [subscribe cfg ~stream abi] connects and subscribes; failures on
      this {e first} attempt raise immediately (an unknown stream at
      session start is a configuration error, not an outage).

      [from] is the store offset to start at against a store-backed
      relay: [-1] (the default) for the live tail, [0] for the oldest
      retained event. The session then counts delivered message frames
      and resubscribes with [from = next-expected-offset], so a relay
      restart replays exactly the missed suffix — no loss, and the
      relay's [skip_until] filter guarantees no duplicates. Against a
      memory-only relay [from] is ignored and resubscribes are
      tail-only, as before. *)
  let subscribe ?(from = -1) ?(want_trace = false) (cfg : config)
      ~(stream : string) (abi : Omf_machine.Abi.t) : subscriber =
    let busy_waits = ref 0 in
    let client = connect_client cfg in
    match
      (* [want_trace]: learn the stream's trace context (PROTOCOLS.md
         §17) with a DESCRIBE on the still-roleless connection, before
         SUBSCRIBE pins it receive-only. Best-effort — a relay without
         tracing simply serves no [trace=] line. *)
      let trace =
        if not want_trace then None
        else
          match Client.describe client ~stream with
          | meta, _ -> fst (Proto.split_trace meta)
          | exception _ -> None
      in
      ( trace,
        with_busy_backoff cfg
          (Prng.create ~seed:cfg.jitter_seed ())
          ~what:(Printf.sprintf "subscriber %s" stream)
          ~on_busy:(fun () -> incr busy_waits)
          (fun () -> Client.subscribe_from client ~stream ~from) )
    with
    | trace, (offset, schema, link) ->
      let catalog = Catalog.create abi in
      ignore
        (Omf_xml2wire.Xml2wire.register_schema ~source:("relay:" ^ stream)
           catalog schema);
      let pbio =
        Pbio.Receiver.create
          (Catalog.registry catalog)
          (Omf_machine.Memory.create abi)
      in
      { s_cfg = cfg; s_stream = stream; s_catalog = catalog; s_pbio = pbio
      ; s_seen = Hashtbl.create 8
      ; s_rng = Prng.create ~seed:cfg.jitter_seed ()
      ; s_client = Some client; s_link = Some link; s_schema = schema
      ; s_next = Option.value offset ~default:(-1)
      ; s_reconnects = 0; s_busy_waits = !busy_waits; s_trace = trace
      ; s_closed = false }
    | exception e ->
      Client.close client;
      raise e

  let drop_subscriber_link (s : subscriber) =
    (match s.s_client with Some c -> Client.close c | None -> ());
    s.s_client <- None;
    s.s_link <- None

  let resubscribe (s : subscriber) : unit =
    with_retries s.s_cfg s.s_rng
      ~what:(Printf.sprintf "subscriber %s" s.s_stream)
      (fun client ->
        let offset, schema, link =
          (* an overloaded relay refuses the [from=] replay with [busy]:
             hold this connection and wait it out instead of burning
             reconnect attempts *)
          with_busy_backoff s.s_cfg s.s_rng
            ~what:(Printf.sprintf "subscriber %s" s.s_stream)
            ~on_busy:(fun () -> s.s_busy_waits <- s.s_busy_waits + 1)
            (fun () ->
              Client.subscribe_from client ~stream:s.s_stream ~from:s.s_next)
        in
        s.s_client <- Some client;
        s.s_link <- Some link;
        s.s_schema <- schema;
        (* a clamped offset (> the request) means retention outran this
           subscriber during the outage: the gap is unrecoverable and
           delivery resumes at the oldest retained event *)
        s.s_next <- Option.value offset ~default:(-1);
        s.s_reconnects <- s.s_reconnects + 1;
        Log.info (fun m ->
            m "subscriber %s: resubscribed from offset %d (reconnect %d)"
              s.s_stream s.s_next s.s_reconnects))

  (** Blocking receive of the next decoded event, reconnecting across
      outages. [None] only after {!close_subscriber}; a hopeless outage
      raises {!Gave_up}. *)
  let rec recv_subscriber (s : subscriber) :
      (Format.t * Value.t) option =
    if s.s_closed then None
    else
      match s.s_link with
      | None ->
        resubscribe s;
        recv_subscriber s
      | Some link -> (
        match Link.recv link with
        | Some frame
          when Bytes.length frame > 0
               && Char.equal (Bytes.get frame 0) Endpoint.frame_descriptor ->
          let blob = Bytes.sub_string frame 1 (Bytes.length frame - 1) in
          let digest = Sha256.digest blob in
          if not (Hashtbl.mem s.s_seen digest) then begin
            Hashtbl.replace s.s_seen digest ();
            ignore (Pbio.Receiver.learn s.s_pbio blob)
          end;
          recv_subscriber s
        | Some frame
          when Bytes.length frame > 0
               && Char.equal (Bytes.get frame 0) Endpoint.frame_message ->
          if s.s_next >= 0 then s.s_next <- s.s_next + 1;
          Some
            (Pbio.Receiver.receive_value s.s_pbio
               (Bytes.sub frame 1 (Bytes.length frame - 1)))
        | Some _ | None ->
          (* graceful close or garbage: either way, this link is done *)
          if s.s_closed then None
          else begin
            drop_subscriber_link s;
            recv_subscriber s
          end
        | exception e ->
          if s.s_closed then None
          else if transient e then begin
            drop_subscriber_link s;
            recv_subscriber s
          end
          else raise e)

  let subscriber_schema (s : subscriber) = s.s_schema

  let subscriber_offset (s : subscriber) = s.s_next
  (** Store offset of the next message frame this session expects
      ([-1] against a memory-only relay). *)

  let subscriber_reconnects (s : subscriber) = s.s_reconnects

  let subscriber_busy_waits (s : subscriber) = s.s_busy_waits
  (** Overload backoffs served ([busy] replies waited out on a live
      connection) — distinct from {!subscriber_reconnects}. *)

  let subscriber_trace (s : subscriber) = s.s_trace
  (** The stream's trace context (PROTOCOLS.md §17) as learned at
      subscribe time; [None] unless the session was opened with
      [~want_trace:true] against a tracing relay. *)

  let subscriber_catalog (s : subscriber) = s.s_catalog

  let subscriber_stats (s : subscriber) : Pbio.Receiver.stats =
    Pbio.Receiver.stats s.s_pbio

  let close_subscriber (s : subscriber) : unit =
    s.s_closed <- true;
    drop_subscriber_link s

  (* ---------------------------------------------------------------- *)
  (* Publisher sessions                                                 *)
  (* ---------------------------------------------------------------- *)

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
    b_rng : Prng.t;
    b_buf : pending Queue.t;
        (** plain mode: marshalled frames not yet written to a live
            link. Ack mode: every frame not yet acknowledged durable —
            sent frames stay queued until the relay's ['k'] ack covers
            them, so a relay crash loses nothing. *)
    b_announced : (int, unit) Hashtbl.t;
        (** format ids announced on the {e current} connection *)
    mutable b_ack_mode : bool;
        (** publishing with [acks=1] against a store-backed relay *)
    mutable b_durable : int;  (** relay's durable watermark (ack mode) *)
    mutable b_next_seq : int;  (** store offset of the next new frame *)
    mutable b_sent : int;
        (** ack mode: length of the queue prefix already written to the
            current connection (those frames await acks, not resends) *)
    mutable b_client : Client.t option;
    mutable b_link : Link.t option;
    mutable b_reconnects : int;
    mutable b_busy_waits : int;
        (** [busy]-triggered backoff sleeps (overload, not outage) *)
    mutable b_closed : bool;
  }

  let stream_frame kind (body : Bytes.t) : Bytes.t =
    let b = Bytes.create (1 + Bytes.length body) in
    Bytes.set b 0 kind;
    Bytes.blit body 0 b 1 (Bytes.length body);
    b

  (** [publisher cfg ~stream ~schema abi] connects, advertises and
      enters publisher mode. First-attempt failures raise immediately,
      as for {!subscribe}. [window] bounds buffered data frames during
      an outage (default 1024).

      With [~acked:true] the session publishes with [acks=1]
      (PROTOCOLS.md §13): frames stay buffered until the relay reports
      them durable, so even a relay killed mid-publish loses nothing —
      the reconnect resends exactly the store's missing suffix, and the
      relay's resume handshake guarantees no duplicates. The window
      then bounds {e unacknowledged} frames, and a full window blocks
      on the ack channel instead of raising. Against a memory-only
      relay the mode degrades to the plain fire-and-forget session. *)
  let publisher ?(window = 1024) ?(acked = false) ?trace (cfg : config)
      ~(stream : string) ~(schema : string) (abi : Omf_machine.Abi.t) :
      publisher =
    let busy_waits = ref 0 in
    let client = connect_client cfg in
    match
      Client.advertise client ~stream ~schema;
      (* ADVERTISE is control traffic and always admitted; PUBLISH may
         be shed under overload — wait it out on this connection *)
      with_busy_backoff cfg
        (Prng.create ~seed:cfg.jitter_seed ())
        ~what:(Printf.sprintf "publisher %s" stream)
        ~on_busy:(fun () -> incr busy_waits)
        (fun () ->
          if acked then Client.publish_acked client ?trace ~stream
          else (None, Client.publish client ?trace ~stream))
    with
    | durable, link ->
      let catalog = Catalog.create abi in
      ignore (Omf_xml2wire.Xml2wire.register_schema catalog schema);
      let d = Option.value durable ~default:0 in
      { b_cfg = cfg; b_stream = stream; b_schema = schema; b_trace = trace
      ; b_window = window
      ; b_catalog = catalog; b_mem = Omf_machine.Memory.create abi
      ; b_rng = Prng.create ~seed:cfg.jitter_seed ()
      ; b_buf = Queue.create (); b_announced = Hashtbl.create 4
      ; b_ack_mode = durable <> None; b_durable = d; b_next_seq = d
      ; b_sent = 0; b_client = Some client; b_link = Some link
      ; b_reconnects = 0; b_busy_waits = !busy_waits; b_closed = false }
    | exception e ->
      Client.close client;
      raise e

  let publisher_format (p : publisher) (name : string) : Format.t option =
    Catalog.find_format p.b_catalog name

  let publisher_reconnects (p : publisher) = p.b_reconnects

  let publisher_busy_waits (p : publisher) = p.b_busy_waits
  (** Overload backoffs served ([busy] replies waited out on a live
      connection) — distinct from {!publisher_reconnects}. *)

  let publisher_buffered (p : publisher) = Queue.length p.b_buf
  (** Plain mode: frames awaiting a live connection. Ack mode: frames
      not yet acknowledged durable. *)

  let publisher_acked (p : publisher) = p.b_ack_mode

  let publisher_durable (p : publisher) = p.b_durable
  (** The relay's durable watermark as of the last ack (ack mode). *)

  let drop_publisher_link (p : publisher) =
    (match p.b_client with Some c -> Client.close c | None -> ());
    p.b_client <- None;
    p.b_link <- None;
    p.b_sent <- 0

  let announce_format (p : publisher) link (fmt : Format.t) =
    if not (Hashtbl.mem p.b_announced fmt.Format.id) then begin
      Link.send link
        (stream_frame Endpoint.frame_descriptor
           (Bytes.of_string (Omf_pbio.Format_codec.encode fmt)));
      Hashtbl.replace p.b_announced fmt.Format.id ()
    end

  (** Write buffered frames to the live link, announcing each format's
      descriptor first if this connection has not seen it. Plain mode
      pops each frame once written; ack mode only advances [b_sent] —
      frames leave the queue when an ack covers them. [false] = the
      link broke (the unwritten tail stays buffered). *)
  let try_flush (p : publisher) : bool =
    match p.b_link with
    | None -> false
    | Some link -> (
      try
        if p.b_ack_mode then begin
          let i = ref 0 in
          Queue.iter
            (fun e ->
              if !i >= p.b_sent then begin
                announce_format p link e.p_fmt;
                Link.send link e.p_frame;
                p.b_sent <- p.b_sent + 1
              end;
              incr i)
            p.b_buf
        end
        else
          while not (Queue.is_empty p.b_buf) do
            let e = Queue.peek p.b_buf in
            announce_format p link e.p_fmt;
            Link.send link e.p_frame;
            ignore (Queue.pop p.b_buf)
          done;
        true
      with e ->
        if transient e then begin
          drop_publisher_link p;
          false
        end
        else raise e)

  (** An ack covering offsets below [n] retires the acked queue
      prefix. *)
  let process_ack (p : publisher) (n : int) =
    if n > p.b_durable then p.b_durable <- n;
    let rec pop () =
      match Queue.peek_opt p.b_buf with
      | Some e when e.p_seq < n ->
        ignore (Queue.pop p.b_buf);
        if p.b_sent > 0 then p.b_sent <- p.b_sent - 1;
        pop ()
      | _ -> ()
    in
    pop ()

  (** Blocking read of one frame from the publisher link — ['k'] acks
      retire buffered frames, ['e'] is a relay-reported error. [false]
      = the link is gone (dropped here on any transient failure). *)
  let drain_ack (p : publisher) : bool =
    match p.b_link with
    | None -> false
    | Some link -> (
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
        if transient e then begin
          drop_publisher_link p;
          false
        end
        else raise e)

  (** Align the session with the watermark a resume handshake returned:
      frames the store already holds durably are retired, the surviving
      suffix is renumbered consecutively from the watermark (identity
      in the common case; a wiped store restarts numbering from its
      fresh tail) and will be resent. [None] means the relay came back
      without a store — acks will never arrive, so the session degrades
      to plain fire-and-forget. *)
  let resync_acked (p : publisher) (durable : int option) =
    match durable with
    | None ->
      p.b_ack_mode <- false;
      Log.warn (fun m ->
          m "publisher %s: relay no longer store-backed; acks disabled"
            p.b_stream)
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

  (** Bounded reconnect: replay ADVERTISE (the relay may have restarted
      with no streams) and PUBLISH, and forget per-connection descriptor
      announcements. [false] = budget exhausted; buffered frames are
      kept for the next attempt. *)
  let reconnect_publisher (p : publisher) : bool =
    p.b_cfg.max_attempts > 0
    && match
         with_retries p.b_cfg p.b_rng
           ~what:(Printf.sprintf "publisher %s" p.b_stream)
           (fun client ->
             Client.advertise client ~stream:p.b_stream ~schema:p.b_schema;
             let republish () =
               with_busy_backoff p.b_cfg p.b_rng
                 ~what:(Printf.sprintf "publisher %s" p.b_stream)
                 ~on_busy:(fun () -> p.b_busy_waits <- p.b_busy_waits + 1)
             in
             if p.b_ack_mode then begin
               let durable, link =
                 republish () (fun () ->
                     Client.publish_acked client ?trace:p.b_trace
                       ~stream:p.b_stream)
               in
               p.b_client <- Some client;
               p.b_link <- Some link;
               p.b_sent <- 0;
               resync_acked p durable
             end
             else begin
               let link =
                 republish () (fun () ->
                     Client.publish client ?trace:p.b_trace
                       ~stream:p.b_stream)
               in
               p.b_client <- Some client;
               p.b_link <- Some link;
               p.b_sent <- 0
             end;
             Hashtbl.reset p.b_announced;
             p.b_reconnects <- p.b_reconnects + 1;
             Log.info (fun m ->
                 m "publisher %s: reconnected (reconnect %d, %d frames \
                    buffered)"
                   p.b_stream p.b_reconnects (Queue.length p.b_buf)))
       with
       | () -> true
       | exception Gave_up _ -> false

  (** Ack mode, window full: block on the ack channel until the relay
      retires a slot, reconnecting (boundedly) when the link breaks.
      {!Overflow} when the relay stays unreachable. *)
  let wait_for_window (p : publisher) : unit =
    let reconnect_rounds = ref 0 in
    while p.b_ack_mode && Queue.length p.b_buf >= p.b_window do
      match p.b_link with
      | Some _ -> ignore (drain_ack p)
      | None ->
        if !reconnect_rounds >= 3 || not (reconnect_publisher p) then
          raise
            (Overflow
               (Printf.sprintf
                  "publisher %s: window full (%d unacknowledged frames) and \
                   the relay is unreachable"
                  p.b_stream p.b_window))
        else begin
          incr reconnect_rounds;
          ignore (try_flush p)
        end
    done

  (** [publish_value p fmt v] marshals and ships one event. During an
      outage the frame is buffered and reconnection attempted under the
      budget; a full window raises {!Overflow} (the event is {e not}
      enqueued) in plain mode and blocks for acks in ack mode; an
      exhausted budget returns with the frame buffered for the next
      call. *)
  let publish_value (p : publisher) (fmt : Format.t) (v : Value.t) : unit =
    if p.b_closed then raise (Client.Error "publisher session closed");
    if Queue.length p.b_buf >= p.b_window then begin
      if p.b_ack_mode then wait_for_window p;
      if Queue.length p.b_buf >= p.b_window then
        raise
          (Overflow
             (Printf.sprintf
                "publisher %s: in-flight window (%d frames) full while relay \
                 unreachable"
                p.b_stream p.b_window))
    end;
    (* marshal now: the value is captured even if the relay is down *)
    Omf_machine.Memory.reset p.b_mem;
    let addr = Omf_pbio.Native.store p.b_mem fmt v in
    let frame =
      stream_frame Endpoint.frame_message (Pbio.message p.b_mem fmt addr)
    in
    let seq = p.b_next_seq in
    if p.b_ack_mode then p.b_next_seq <- seq + 1;
    Queue.add { p_fmt = fmt; p_frame = frame; p_seq = seq } p.b_buf;
    if not (try_flush p) then
      if reconnect_publisher p then ignore (try_flush p)

  (** Block until every buffered frame is acknowledged durable (ack
      mode) or written (plain mode), reconnecting under the budget.
      {!Gave_up} when the relay stays unreachable. *)
  let flush_acked (p : publisher) : unit =
    if not p.b_ack_mode then ignore (try_flush p)
    else begin
      let reconnect_rounds = ref 0 in
      while p.b_ack_mode && not (Queue.is_empty p.b_buf) do
        match p.b_link with
        | Some _ ->
          ignore (try_flush p);
          if p.b_ack_mode && not (Queue.is_empty p.b_buf) then
            ignore (drain_ack p)
        | None ->
          if !reconnect_rounds >= 3 || not (reconnect_publisher p) then
            raise
              (Gave_up
                 (Printf.sprintf
                    "publisher %s: flush: relay unreachable with %d \
                     unacknowledged frames"
                    p.b_stream (Queue.length p.b_buf)))
          else incr reconnect_rounds
      done
    end

  (** Close, flushing buffered frames best-effort (no reconnect; call
      {!flush_acked} first for a durable handoff). *)
  let close_publisher (p : publisher) : unit =
    if not p.b_closed then begin
      p.b_closed <- true;
      ignore (try try_flush p with _ -> false);
      drop_publisher_link p
    end
end
