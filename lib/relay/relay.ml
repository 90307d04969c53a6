(** The networked event relay's server: the paper's event backbone
    (Figures 1 and 3) served over real TCP by {!Omf_reactor.Reactor}
    event loops — the repository's only publish/subscribe broker.

    This file holds the server alone: shards and their connections, the
    per-stream records, and the replication links a mirror hands in
    ({!adopt_replica} takes a socket and its negotiated modes, never a
    client). The raw {!Client} (relay_client.ml) is re-exported as
    [Relay.Client]; the Pbio-typed consumer and sessions are
    relay_session.ml, which nothing here names, so a relay links none
    of the binding stack (doc/REACTOR.md §8).

    Capture points and subscribers are separate processes on separate
    machines. Each shard keeps one record per hosted stream — schema and
    scope policy, the format-descriptor frames replayed to late joiners,
    the credential-scoped metadata it serves, its publishers and
    subscribers, store handle and advertisement — behind a small control
    protocol carried on the same length-prefixed TCP framing as the
    {!Omf_transport.Endpoint} descriptor/message frames it relays.

    Design points:

    - {b Single-threaded per shard.} A relay is N shards (one by
      default), each a reactor loop on its own domain; shard 0's loop
      also accepts, and deals sockets out to the others (relayd runs
      shard 0 on its main thread). A loop owns every socket of its shard;
      non-blocking reads are reassembled into frames by
      {!Omf_reactor.Conn}, writes are queued per connection and flushed
      on writability. No locks on the hot path, deterministic fan-out
      order. Each advertised stream is pinned to one shard, so
      per-stream ordering is preserved.
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
module Clock = Omf_util.Clock
module Counters = Omf_util.Counters
module Slice = Omf_util.Slice
module Decode = Omf_util.Decode
module Store = Omf_store.Store
module Compress = Omf_compress.Compress
module Governor = Governor
module Trace = Omf_trace.Trace

module Log = Omf_util.Log

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

(** Which fields of the stream's types a subscriber with these
    credentials may see; [None] = everything (§4.4's format scoping). *)
type scope_policy = (string * string) list -> string list option

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

type state = Running | Draining | Stopped

(** A replication link hosted in the relay (see relay.mli). *)
type replica = {
  stream : string;
  meta : (string * string) list;
  schema : string;
  trace : Trace.ctx option;
  on_frame : [ `Message | `Descriptor ] -> unit;
  on_close : local:bool -> unit;
}

type role =
  | Pending  (** control commands only, no stream attached yet *)
  | Publisher of {
      stream : stream;
      acks : bool;
          (** [acks=1] was requested at PUBLISH on a store-backed
              stream: send ['k' durable] frames as appends harden *)
      replica : replica option;
          (** a replication link ({!adopt_replica}): the only writer a
              mirrored stream admits; PROMOTE dooms it *)
      mutable acked : int;  (** last durable offset sent as an ack *)
      ptrace : Trace.ctx option;
          (** trace context for this publisher's frames (doc/TRACE.md,
              PROTOCOLS.md §17): the [trace=] context supplied at
              PUBLISH, or one minted by the relay's head sampler;
              [None] iff tracing is disabled on the shard *)
    }
  | Subscriber of {
      stream : stream;
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

(** Delivery-side tracing mark (doc/TRACE.md): stamped on a subscriber
    connection when a traced frame is enqueued, consumed by the [flush]
    span (first bytes written after the enqueue) and the [deliver] span
    (write queue fully drained). One mark per connection — sampling
    keeps traced frames rare, and a later traced enqueue simply
    restarts the clock — so the untraced path pays one [None] check. *)
and tmark = {
  tm_trace : int64;
  tm_parent : int64;
  tm_sampled : bool;
  tm_stream : string;
  tm_enq_us : int;  (** monotonic enqueue timestamp ({!Clock.now_us}) *)
  mutable tm_flushed : bool;  (** the [flush] span was already recorded *)
}

and conn = {
  cid : int;  (** unique across the relay: strided by shard count *)
  io : Rconn.t;  (** the reactor-side buffered connection driver *)
  mutable creds : (string * string) list;
  mutable greeted : bool;
      (** HELLO was answered; a second one would re-arm [mac]/[comp]
          mid-stream *)
  mutable role : role;
  mutable grace_timer : Reactor.timer option;
      (** pending eviction deadline on the shard's timer wheel, armed
          while the queue is over the watermark (Evict_slow) *)
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
  mutable throttled : bool;
      (** reads paused by the ingress token bucket; a reactor timer
          clears this when the bucket refills *)
  bucket : Token_bucket.t option;
      (** per-connection ingress token bucket ([--ingress-rate]),
          charged one token per publisher stream frame *)
  mutable trace_mark : tmark option;
      (** pending flush/deliver trace spans for the most recently
          enqueued traced frame (subscribers only) *)
  mutable home : shard;  (** the shard whose loop owns this connection *)
  lend : Rconn.t option;
      (** [Some io], boxed once: what {!conn_frame} names as the lender
          of this connection's input, so relaying a frame boxes
          nothing *)
  mutable inflated : Slice.t;
      (** the last inbound [comp=lz] frame, inflated into a buffer
          lent per connection: reused while lengths repeat, so a
          queue that keeps the body copies it *)
  inflate_into : (int -> Bytes.t) option;
      (** [Some f], boxed once, where [f n] lends [inflated]'s buffer
          at length [n] to {!Compress.decompress_sub} *)
}

(** Everything a shard knows about one stream it hosts (the backbone's
    per-stream state, Figures 1 and 3). Loop-thread only: a stream is
    pinned to one shard. *)
and stream = {
  name : string;
  mutable schema : string;  (** the advertised XML Schema document *)
  mutable scope : scope_policy;
      (** which fields a subscriber's credentials may see (§4.4) *)
  mutable descriptors : Bytes.t list;
      (** distinct descriptor frames in first-seen order, replayed to
          every late joiner; deduped by content because a reconnecting
          publisher (or store recovery) re-announces the same ones *)
  mutable subscribers : conn list;  (** join order = fan-out order *)
  mutable publishers : conn list;
  mutable store : Store.t option;
      (** the stream's log, opened on first touch; [None] on a
          memory-only relay (or while opening it keeps failing) *)
  mutable advert : (string * string) list;
      (** advertisement metadata ([subject=] / [version=] /
          [fingerprint=] registry bindings, PROTOCOLS.md §14, and the
          §15 [origin=]/[epoch=] tag); [[]] until one is recorded *)
  mutable trace_ctx : Trace.ctx option;
      (** the latest publisher's trace context, served in DESCRIBE
          metadata so downstream mirrors join the same trace *)
  mutable published : int;  (** descriptor and message frames fanned out *)
  mutable ack_pending : bool;
      (** an [acks=1] publisher appended since the last ack flush *)
  comp_keys : string * string;
      (** this stream's [comp.<name>.raw_bytes] / [.wire_bytes] counter
          keys, built once *)
}

(** Relay-wide state: which shard hosts which stream, and every shard
    (for merged stats). The pins table is the only cross-shard mutable
    structure on the request path; it is mutex-guarded and touched once
    per stream-naming command. A stream is pinned only while a shard
    hosts it: from its first ADVERTISE, or from store recovery. *)
and shared = {
  pins_mu : Mutex.t;
  pins : (string, int) Hashtbl.t;  (** stream -> owning shard id *)
  mutable peers : shard array;  (** every shard, indexed by shard id *)
  call_mu : Mutex.t;
  call_cv : Condition.t;  (** {!on_loop}: a result or a loop exit *)
  stopped : bool Atomic.t;  (** {!stop} has begun: every shard drains *)
}

and shard = {
  relay_id : string;
      (** this relay's replication identity (PROTOCOLS.md §15): the
          [origin=] tag stamped on locally advertised streams, shared
          by every shard; persisted under the store root so a restart
          keeps owning its streams *)
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
  drain_default_s : float;
  governor : Governor.t;
      (** the shard's byte-budget governor (overload control,
          doc/OVERLOAD.md); loop-thread only, like [conns] *)
  trace : Trace.collector option;
      (** sampled distributed tracing (doc/TRACE.md): the shard's span
          ring buffer; [None] = tracing disabled, zero cost *)
  ingress : (float * float) option;
      (** per-connection ingress token bucket [(rate, burst)] in
          frames/s; [None] = unlimited *)
  reactor : Reactor.t;
  streams : (string, stream) Hashtbl.t;
      (** the streams pinned to this shard; loop-thread only *)
  conns : (int, conn) Hashtbl.t;  (** loop-thread only *)
  counters : Counters.t;
  shard_id : int;
  cid_stride : int;
  shared : shared;
  store_cfg : Store.config option;
      (** durable stream store; [None] = memory-only relay *)
  mutable fanout_seq : int;
      (** numbers each {!fan_out}: the caches below are keyed on it, not
          on the body's buffer, which a publisher's decoder reuses from
          frame to frame *)
  mutable src_lender : Rconn.t option;
      (** while {!conn_frame} relays a frame: the publisher whose input
          the body (and [comp_cache_blk]) borrow; [None] otherwise *)
  mutable src_framed : bool;
      (** the body sits right behind its length header in the lender's
          input, so a plain queue sends the frame as it arrived *)
  mutable src_inflated : bool;
      (** the body is the publisher's inflated frame ([inflated]), which
          the next frame overwrites: a queue keeps a copy of it *)
  mutable body_copy_seq : int;
      (** the fan-out whose inflated body [body_copy] copies: fanning
          one publish out to N subscribers copies it once *)
  mutable body_copy : Slice.t;
  mutable comp_cache_seq : int;
      (** the fan-out whose block is [comp_cache_blk], shared by every
          compressed queue (a sealed queue writes its own header in
          front of it, as nonces are per connection). {!conn_frame}
          seeds it with a compressing publisher's own block, so the
          relay compresses only what it re-encodes: stored replay,
          replies *)
  mutable comp_cache_blk : Slice.t;
  mutable comp_cache_framed : bool;
      (** [comp_cache_blk] sits right behind its length header *)
  mutable comp_cache_lender : Rconn.t option;
      (** the publisher whose input [comp_cache_blk] borrows *)
  comp_scratch : Compress.scratch;
      (** shard-owned match-finder workspace (the shard loop is
          single-threaded) — compression never allocates chain arrays
          per frame *)
  mutable ack_flush_scheduled : bool;
  mutable store_timer : Reactor.timer option;
  mutable gauge_timer : Reactor.timer option;
  mutable next_cid : int;
  mutable state : state;
  mutable drain_timer : Reactor.timer option;
  mutable exited : bool;  (** the loop returned; under [call_mu] *)
  mutable nursery_sized : bool;  (** {!size_nursery} ran *)
}

(** Every shard's counters summed, so a STATS reply from any shard
    reports whole-relay traffic. *)
let counter_snapshot (sh : shared) : (string * int) list =
  Counters.merged (Array.to_list (Array.map (fun s -> s.counters) sh.peers))

(** A hosted stream's gauges: publish and subscriber counts, the
    subscribers' queued data frames, and its store's size and
    watermarks. *)
let stream_gauges (s : stream) : (string * int) list =
  let g prefix key v = (Printf.sprintf "%s.%s.%s" prefix s.name key, v) in
  let depth =
    List.fold_left
      (fun acc c -> acc + Rconn.queued_droppable c.io)
      0 s.subscribers
  in
  g "stream" "published" s.published
  :: g "stream" "subscribers" (List.length s.subscribers)
  :: g "stream" "queue_depth" depth
  ::
  (match s.store with
  | None -> []
  | Some st ->
    g "store" "tail" (Store.tail st)
    :: g "store" "durable" (Store.durable st)
    :: g "store" "segments" (Store.segments st)
    :: g "store" "bytes" (Store.bytes st)
    ::
    (if Store.comp_raw_bytes st > 0 then
       [ g "store" "comp_raw" (Store.comp_raw_bytes st)
       ; g "store" "comp_stored" (Store.comp_stored_bytes st) ]
     else []))

(** The GC work of the calling domain, which must be [t]'s own: on
    OCaml 5 [Gc.minor_words] and [Gc.counters] count per domain, so
    these are the shard's words alone, summed across shards by
    {!Counters.merged}. [Gc.counters]' promoted and major words are as
    of the domain's last minor collection. The minor collection count
    is the process's — each minor collection stops every domain — so
    only shard 0 reports it. *)
let gc_gauges (t : shard) : (string * int) list =
  let _, promoted, major = Gc.counters () in
  ("gc.minor_words", Float.to_int (Gc.minor_words ()))
  :: ("gc.promoted_words", Float.to_int promoted)
  :: ("gc.major_words", Float.to_int major)
  ::
  (if t.shard_id = 0 then
     [ ("gc.minor_collections", (Gc.quick_stat ()).Gc.minor_collections) ]
   else [])

(** Write the shard's gauges into its counters: every hosted stream's
    {!stream_gauges}, the shard's {!gc_gauges} and the governor's.
    Runs on the shard's own loop (so on its own domain): once a second
    from {!gauge_tick}, and before each STATS reply. *)
let write_gauges (t : shard) =
  let set (k, v) = Counters.set t.counters k v in
  Hashtbl.iter (fun _ s -> List.iter set (stream_gauges s)) t.streams;
  List.iter set (gc_gauges t);
  Counters.set t.counters "governor_used_bytes" (Governor.used t.governor);
  Counters.set t.counters "governor_health"
    (Governor.health_level (Governor.health t.governor));
  if Governor.enabled t.governor then begin
    Counters.set t.counters "governor_budget_bytes"
      (Governor.budget t.governor);
    Counters.set t.counters "governor_retry_ms"
      (Governor.busy_retry_ms t.governor)
  end

(** The STATS reply body: the relay-wide {!counter_snapshot}, after
    the answering shard has written its own gauges, so they are
    current; every other shard's are as of its last {!gauge_tick}. *)
let stats (t : shard) : (string * int) list =
  write_gauges t;
  counter_snapshot t.shared

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                       *)
(* ------------------------------------------------------------------ *)

(** Flush deadline reached (or everything flushed): doom what is left
    and stop the loop. *)
let finish_drain (t : shard) =
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
    Hashtbl.iter (fun _ s -> Option.iter Store.close s.store) t.streams;
    Reactor.stop t.reactor;
    Log.info (fun m -> m "shard %d stopped" t.shard_id)
  end

let check_drain_done (t : shard) =
  if t.state = Draining && Reactor.queued_bytes t.reactor = 0 then
    finish_drain t

(** Stop reading, keep flushing subscriber queues until they empty or
    the drain deadline fires. Loop-thread only. *)
let begin_drain (t : shard) =
  if t.state = Running then begin
    t.state <- Draining;
    Hashtbl.iter (fun _ c -> Rconn.set_read_intent c.io false) t.conns;
    t.drain_timer <-
      Some (Reactor.after t.reactor t.drain_default_s (fun () -> finish_drain t));
    Log.info (fun m -> m "draining %d connections" (Hashtbl.length t.conns));
    check_drain_done t
  end

(* ------------------------------------------------------------------ *)
(* Outbound queues and backpressure                                     *)
(* ------------------------------------------------------------------ *)

(* Compression accounting (doc/COMPRESS.md): monotonic raw/wire byte
   totals per stream, plus the achieved ratio (x100) as a histogram —
   [comp.control.*] covers pre-role and control-only connections. *)
let comp_ratio_bounds =
  (* boxed once: [~bounds:] would box it on every compressed frame *)
  Some [ 100; 110; 125; 150; 200; 300; 500; 800; 1600 ]

let note_comp (c : conn) ~(raw : int) ~(wire : int) =
  let t = c.home in
  let raw_key, wire_key =
    match c.role with
    | Publisher { stream; _ } | Subscriber { stream; _ } -> stream.comp_keys
    | Pending -> ("comp.control.raw_bytes", "comp.control.wire_bytes")
  in
  Counters.add t.counters raw_key raw;
  Counters.add t.counters wire_key wire;
  if wire > 0 then
    Counters.observe t.counters ?bounds:comp_ratio_bounds "compress_ratio"
      (raw * 100 / wire)

(* the fan-out's body as a queue may keep it: the publisher's inflated
   frame, which its next frame inflates over, is copied once per
   fan-out and every queue shares the copy *)
let fanout_body (t : shard) (body : Slice.t) =
  if not t.src_inflated then body
  else begin
    if t.body_copy_seq <> t.fanout_seq then begin
      t.body_copy_seq <- t.fanout_seq;
      t.body_copy <- Slice.of_bytes (Slice.to_bytes body)
    end;
    t.body_copy
  end

(** Queue one frame body on [c], compressed on a [comp=lz] connection;
    a sealed connection's queue seals it when it first writes it
    ({!Rconn.set_sealer}). With [~fanout], [body] is the frame
    {!fan_out} is relaying now: its compressed form is built once per
    fan-out and shared by every queue, and a queue borrows the body or
    block from the publisher's input ([src_lender],
    [comp_cache_lender]) — on a plain connection together with the
    length header it arrived behind, if it has one. *)
let enqueue_entry ?(fanout = false) (c : conn) ~droppable (body : Slice.t) =
  let t = c.home in
  let h = Frame.header_length in
  let plain = Option.is_none c.mac in
  if c.comp then begin
    if fanout && t.comp_cache_seq <> t.fanout_seq then begin
      t.comp_cache_seq <- t.fanout_seq;
      t.comp_cache_blk <-
        Slice.of_bytes (Compress.compress_slice ~scratch:t.comp_scratch body);
      t.comp_cache_framed <- false;
      t.comp_cache_lender <- None
    end;
    let blk =
      if fanout then t.comp_cache_blk
      else Slice.of_bytes (Compress.compress_slice ~scratch:t.comp_scratch body)
    in
    note_comp c ~raw:(Slice.length body) ~wire:(Slice.length blk);
    if fanout && plain && t.comp_cache_framed then
      (* the publisher's frame as it arrived: header and block *)
      Rconn.send_view c.io ~droppable ?lender:t.comp_cache_lender blk.buf
        (blk.off - h) (Slice.length blk + h)
    else
      Rconn.send_body c.io ~droppable
        ?lender:(if fanout then t.comp_cache_lender else None)
        blk.buf blk.off (Slice.length blk)
  end
  else if fanout && plain && t.src_framed then
    (* the frame as it arrived: its header and body, one view of the
       publisher's input *)
    Rconn.send_view c.io ~droppable ?lender:t.src_lender body.buf
      (body.off - h) (Slice.length body + h)
  else
    let body = if fanout then fanout_body t body else body in
    Rconn.send_body c.io ~droppable
      ?lender:(if fanout then t.src_lender else None)
      body.buf body.off (Slice.length body)

(* --- tracing span recorders (doc/TRACE.md) ------------------------- *)

(* A span is written only when the trace is sampled or the duration
   crosses the slow threshold; the same gate feeds the stage-latency
   histogram so "stage_us.*" and /trace/spans always agree. *)
let trace_record (t : shard) ~(trace : int64) ~(parent : int64)
    ~(sampled : bool) ~(stage : string) ~(stream : string) ~(t0_us : int) =
  match t.trace with
  | None -> ()
  | Some col ->
    let dur = Clock.now_us () - t0_us in
    if Trace.should_record col ~sampled ~dur_us:dur then begin
      Trace.record col ~trace ~parent ~stage ~stream ~start_us:t0_us
        ~dur_us:dur;
      Counters.observe t.counters ("stage_us." ^ stage) dur
    end

let trace_span (t : shard) (ctx : Trace.ctx) ~(stage : string)
    ~(stream : string) ~(t0_us : int) =
  trace_record t ~trace:ctx.Trace.trace_id ~parent:ctx.Trace.span_id
    ~sampled:ctx.Trace.sampled ~stage ~stream ~t0_us

let trace_mark_span (t : shard) (tm : tmark) ~(stage : string) =
  trace_record t ~trace:tm.tm_trace ~parent:tm.tm_parent
    ~sampled:tm.tm_sampled ~stage ~stream:tm.tm_stream ~t0_us:tm.tm_enq_us

let reply (c : conn) (r : Proto.reply) =
  enqueue_entry c ~droppable:false (Slice.of_bytes (Proto.encode_reply r))

let reply_ok c body = reply c (Proto.Ok body)

let reply_err (t : shard) c msg =
  Counters.incr t.counters "errors";
  reply c (Proto.Err msg)

(** Shed a command with the retryable overload status (PROTOCOLS.md
    §16). The connection keeps its (Pending) role and stays usable —
    the client is expected to back off [retry_ms] and retry on the same
    connection. *)
let reply_busy (t : shard) c (what : string) =
  Counters.incr t.counters (what ^ "_busy");
  reply c (Proto.Busy (Governor.busy_retry_ms t.governor))

(* ------------------------------------------------------------------ *)
(* Durable store plumbing (loop-thread only)                            *)
(* ------------------------------------------------------------------ *)

(** The stream's store handle, opened (and recovered) on first touch.
    [None] when the relay runs memory-only. Raises {!Store.Store_error}
    if the on-disk log is damaged beyond the torn-tail repair. *)
let store_handle (t : shard) (s : stream) : Store.t option =
  match (s.store, t.store_cfg) with
  | Some st, _ -> Some st
  | None, None -> None
  | None, Some cfg ->
    let st = Store.open_stream cfg s.name in
    s.store <- Some st;
    Some st

(** Send ['k' durable] to every [acks=1] publisher of the streams
    marked [ack_pending] whose durable watermark advanced since the
    last ack. Coalesced: scheduled at most once per dispatch round. *)
let flush_acks (t : shard) =
  t.ack_flush_scheduled <- false;
  Hashtbl.iter
    (fun _ s ->
      if s.ack_pending then begin
        s.ack_pending <- false;
        Option.iter
          (fun st ->
            let durable = Store.durable st in
            List.iter
              (fun c ->
                match c.role with
                | Publisher p
                  when p.acks && durable > p.acked && Rconn.alive c.io ->
                  p.acked <- durable;
                  reply c (Proto.Ack durable)
                | _ -> ())
              s.publishers)
          s.store
      end)
    t.streams

let schedule_ack_flush (t : shard) (s : stream) =
  s.ack_pending <- true;
  if not t.ack_flush_scheduled then begin
    t.ack_flush_scheduled <- true;
    Reactor.defer t.reactor (fun () -> flush_acks t)
  end

(** Fsync [s]'s pending appends and wake the acks whose durable
    advanced. *)
let sync_stream (t : shard) (s : stream) =
  Option.iter
    (fun st ->
      let before = Store.durable st in
      match Store.sync st with
      | d -> if d > before then schedule_ack_flush t s
      | exception Store.Store_error msg ->
        Counters.incr t.counters "store_errors";
        Log.err (fun m -> m "store %s: %s" s.name msg))
    s.store

(** Periodic store maintenance: fsync dirty logs (this is the whole of
    the [Interval] policy, and bounds straggler latency for [Every_n]),
    wake acks whose durable advanced, and enforce age-based retention.
    Re-arms itself while the shard runs. *)
let rec store_tick (t : shard) (period : float) =
  Hashtbl.iter
    (fun _ s ->
      sync_stream t s;
      Option.iter (fun st -> ignore (Store.apply_retention st)) s.store)
    t.streams;
  if t.state = Running then
    t.store_timer <-
      Some (Reactor.after t.reactor period (fun () -> store_tick t period))

(** The once-a-second tick on the shard's own loop: the governor's
    {!Governor.note_tick}, then {!write_gauges}, so the gauges flow
    through STATS, [Counters.merged] and [Http.metrics_handler] like
    any counter. *)
let rec gauge_tick (t : shard) =
  Governor.note_tick t.governor ~now:(Reactor.now ());
  write_gauges t;
  if t.state = Running then
    t.gauge_timer <- Some (Reactor.after t.reactor 1.0 (fun () -> gauge_tick t))

(** Under [Block]: is some subscriber of [s] over the watermark? *)
let stream_congested (t : shard) (s : stream) : bool =
  t.policy = Block
  && List.exists
       (fun c ->
         Rconn.alive c.io && Rconn.queued_droppable c.io >= t.max_queue)
       s.subscribers

(** May this publisher connection be read from at all? False while the
    shard is not running, the connection's ingress bucket is in debt,
    or the governor is [Overloaded] (ingress shed until usage falls
    back below the low watermark). Per-stream [Block] congestion is a
    separate condition checked by the callers that know the stream. *)
let publisher_read_ok (t : shard) (c : conn) : bool =
  t.state = Running
  && (not c.throttled)
  && Governor.health t.governor <> Governor.Overloaded

let set_publishers_reading (t : shard) (s : stream) (b : bool) =
  List.iter
    (fun c -> Rconn.set_read_intent c.io (b && publisher_read_ok t c))
    s.publishers

let maybe_resume_stream (t : shard) (s : stream) =
  if t.policy = Block && t.state = Running && not (stream_congested t s) then
    set_publishers_reading t s true

let clear_grace (c : conn) =
  match c.grace_timer with
  | Some tm ->
    Reactor.cancel c.home.reactor tm;
    c.grace_timer <- None
  | None -> ()

(** Doom [c] as a slow consumer. *)
let evict_slow (t : shard) (c : conn) =
  Counters.incr t.counters "subscribers_evicted";
  Log.info (fun m -> m "conn %d: evicting slow consumer" c.cid);
  Rconn.doom c.io "slow consumer evicted"

(** Start the eviction grace clock: if the subscriber is still over the
    watermark when the timer fires, it is evicted — an actively
    draining consumer that recovers in time is spared ({!conn_progress}
    cancels the timer). *)
let arm_grace (t : shard) (c : conn) =
  match c.grace_timer with
  | Some _ -> ()
  | None ->
    c.grace_timer <-
      Some
        (Reactor.after t.reactor t.evict_grace (fun () ->
             c.grace_timer <- None;
             if Rconn.alive c.io then evict_slow t c))

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
let pump_replay (t : shard) (c : conn) =
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
               enqueue_entry c ~droppable:true body;
               r.r_next <- off + 1)
         with
         | () -> ()
         | exception Store.Store_error msg ->
           (* a partial replay would silently gap the stream: kill the
              subscription so the client retries *)
           failed := true;
           s.replay <- None;
           Counters.incr t.counters "store_errors";
           Log.err (fun m -> m "store %s: replay: %s" s.stream.name msg);
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

let is_descriptor (frame : Slice.t) =
  Slice.length frame > 0
  && Char.equal (Slice.get frame 0) Proto.frame_descriptor

(** Enqueue the frame {!fan_out} is relaying onto subscriber [c],
    applying the backpressure policy. [offset] is the frame's store
    offset ([-1] when it has none); [trace] the publisher's trace
    context for a traced message, which the subscriber's delivery spans
    inherit. *)
let enqueue_relayed (t : shard) (c : conn) (frame : Slice.t)
    ~(offset : int) ~(trace : Trace.ctx option) =
  match c.role with
  | Publisher _ | Pending -> ()
  | Subscriber s -> (
    (* Store-backed crash recovery: a resuming publisher re-appends
       offsets a resubscribed consumer already received live before the
       crash; the subscriber declared its high-water mark at SUBSCRIBE
       ([skip_until]) and live frames below it are silently elided.
       While a chunked replay is in flight {e every} store-offset frame
       is withheld: it was appended before fan-out, so the pump will
       deliver it from the store in order. *)
    match s.replay with
    | Some _ when offset >= 0 ->
      Counters.incr t.counters "store_fanout_deferred";
      pump_replay t c
    | _ when offset >= 0 && s.skip_until >= 0 && offset < s.skip_until ->
      Counters.incr t.counters "store_fanout_skipped"
    | _ ->
      let droppable = not (is_descriptor frame) in
      if droppable && Rconn.queued_droppable c.io >= t.max_queue then begin
        match t.policy with
        | Block ->
          (* over the high-watermark: pause the stream's publishers
             until this queue drains ({!conn_progress} resumes them);
             nothing is lost — TCP pushes back to the capture point *)
          if not c.congesting then begin
            c.congesting <- true;
            set_publishers_reading t s.stream false
          end
        | Drop_oldest ->
          if Rconn.drop_oldest_droppable c.io > 0 then
            Counters.incr t.counters "frames_dropped"
        | Evict_slow -> (
          if Governor.health t.governor <> Governor.Healthy then begin
            (* Degraded: no grace for laggards — shed the slow consumer
               now so its queue bytes come back before the shard
               overloads *)
            Counters.incr t.counters "evictions_eager";
            evict_slow t c
          end
          else
            (* over the watermark: start the grace clock rather than
               evicting outright. The queue may grow past the watermark
               during the grace window; it is bounded by grace x publish
               rate. *)
            arm_grace t c)
      end;
      (match trace with
      | Some ctx ->
        c.trace_mark <-
          Some
            { tm_trace = ctx.Trace.trace_id
            ; tm_parent = ctx.Trace.span_id
            ; tm_sampled = ctx.Trace.sampled
            ; tm_stream = s.stream.name
            ; tm_enq_us = Clock.now_us ()
            ; tm_flushed = false }
      | None -> ());
      enqueue_entry ~fanout:true c ~droppable frame;
      Counters.incr t.counters "frames_out")

let known_descriptor (s : stream) (frame : Slice.t) =
  List.exists (Slice.equal_bytes frame) s.descriptors

let rec enqueue_all (t : shard) (frame : Slice.t) ~offset ~trace = function
  | [] -> ()
  | c :: rest ->
    if Rconn.alive c.io then enqueue_relayed t c frame ~offset ~trace;
    enqueue_all t frame ~offset ~trace rest

(** Publish one descriptor or message frame on [s]: cache (copy) a new
    descriptor for late joiners, count it, and enqueue it on every live
    subscriber in join order. The frame borrows the input of
    [t.src_lender], if any. *)
let fan_out (t : shard) (s : stream) (frame : Slice.t) ~(offset : int)
    ~(trace : Trace.ctx option) =
  if is_descriptor frame && not (known_descriptor s frame) then
    s.descriptors <- s.descriptors @ [ Slice.to_bytes frame ];
  s.published <- s.published + 1;
  t.fanout_seq <- t.fanout_seq + 1;
  enqueue_all t frame ~offset ~trace s.subscribers

(** Governor health changed (called synchronously from the reactor's
    queued-bytes hook). Entering [Overloaded] pauses ingress from every
    publisher — control traffic, subscriber drains and descriptor
    replays keep flowing, so the shard sheds load without going dark.
    Leaving it resumes publishers (unless individually throttled or
    their stream is Block-congested) and re-pumps stored replays stalled
    at the zero-chunk budget. *)
let on_governor_transition (t : shard) (prev : Governor.health)
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
  if is_over <> was_over then
    Hashtbl.iter
      (fun _ s ->
        set_publishers_reading t s (not (is_over || stream_congested t s));
        if not is_over then
          List.iter
            (fun c ->
              match c.role with
              | Subscriber { replay = Some _; _ } -> pump_replay t c
              | Subscriber _ | Publisher _ | Pending -> ())
            s.subscribers)
      t.streams

(* ------------------------------------------------------------------ *)
(* Frame dispatch                                                       *)
(* ------------------------------------------------------------------ *)

(** Reject a connection at the protocol level: count it, reply, doom
    (the doom's opportunistic flush usually gets the ['e'] out). *)
let protocol_reject (t : shard) (c : conn) (msg : string) =
  Counters.incr t.counters "frames_rejected";
  Log.warn (fun m -> m "conn %d: %s" c.cid msg);
  reply_err t c msg;
  Rconn.doom c.io "protocol error"

(** HMAC frame mode on [c]: inbound frames are opened with [st], and
    every body queued from now on is sealed with it as the connection
    first writes it *)
let arm_mac (c : conn) (st : Macframe.state) =
  c.mac <- Some st;
  Rconn.set_sealer c.io ~header:Macframe.header_length
    (Macframe.seal_header st)

(** HELLO: record credentials and negotiate the frame mode. With
    [auth=hmac] + a known [key-id], the ['o'] reply is sent in the
    clear and every subsequent frame in both directions is sealed
    ({!Macframe}); an unknown key or unsupported mode is refused and
    the connection dropped. A client that reconnects after an outage
    marks itself with an [omf-reconnect] credential so operators can
    see churn in STATS. A repeated HELLO is a protocol violation: it
    would re-arm the frame modes mid-stream. *)
let handle_hello (t : shard) (c : conn) (creds : (string * string) list) =
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
        arm_mac c (Macframe.state ~key);
        arm_comp ()))
  | Some other ->
    Counters.incr t.counters "auth_denied";
    reply_err t c (Printf.sprintf "hello: unsupported auth mode %s" other);
    Rconn.doom c.io "auth denied"

(** Which shard hosts [stream]? The one it is pinned to; an unpinned
    stream is hosted nowhere, so the asking shard [t] answers for it
    (with an unknown-stream error). [~claim:true] (ADVERTISE) pins an
    unpinned stream to [t]. Thread-safe; called from any shard loop. *)
let stream_owner ?(claim = false) (t : shard) (stream : string) : shard =
  let sh = t.shared in
  Mutex.lock sh.pins_mu;
  let owner =
    match Hashtbl.find_opt sh.pins stream with
    | Some id -> sh.peers.(id)
    | None ->
      if claim then Hashtbl.replace sh.pins stream t.shard_id;
      t
  in
  Mutex.unlock sh.pins_mu;
  owner

(** Give back the pin a failed ADVERTISE claimed: [t] does not host
    the stream. *)
let release_pin (t : shard) (stream : string) =
  if not (Hashtbl.mem t.streams stream) then begin
    let sh = t.shared in
    Mutex.lock sh.pins_mu;
    if Hashtbl.find_opt sh.pins stream = Some t.shard_id then
      Hashtbl.remove sh.pins stream;
    Mutex.unlock sh.pins_mu
  end

(** Host a newly advertised (or recovered) stream on [t]. *)
let add_stream (t : shard) ?store (name : string) (schema : string) : stream =
  let s =
    { name; schema; scope = (fun _ -> None); descriptors = []
    ; subscribers = []; publishers = []; store; advert = []
    ; trace_ctx = None; published = 0; ack_pending = false
    ; comp_keys =
        ( Printf.sprintf "comp.%s.raw_bytes" name
        , Printf.sprintf "comp.%s.wire_bytes" name ) }
  in
  Hashtbl.replace t.streams name s;
  s

(** The stream's advertisement metadata, defaulting streams advertised
    before origin tracking (or recovered from a pre-§15 store) to
    owned-here at epoch 0. *)
let advert_info (t : shard) (s : stream) : (string * string) list =
  Proto.tagged s.advert ~origin:t.relay_id

(** Record (and, when store-backed, persist) the stream's metadata so a
    restarted relay re-advertises it — registry binding and origin tag
    included — before any publisher returns. *)
let persist_advert (t : shard) (s : stream) (kvs : (string * string) list) =
  s.advert <- kvs;
  match store_handle t s with
  | None -> ()
  | Some st -> Store.set_meta st kvs
  | exception Store.Store_error msg ->
    Counters.incr t.counters "store_errors";
    Log.err (fun m -> m "store %s: %s" s.name msg)

(** The stream's schema reduced to the field names [creds] may see
    (§4.4's format scoping: a scoped subscriber registers the reduced
    format, and NDR's match-by-name conversion drops the hidden fields
    on receive). [Error] names the first type scoping leaves empty. *)
let scoped_schema (s : stream) (creds : (string * string) list) :
    (string, string) result =
  match s.scope creds with
  | None -> Ok s.schema
  | Some visible -> (
    let module S = Omf_xschema.Schema in
    let schema = S.of_string s.schema in
    let types =
      List.map
        (fun (ct : S.complex_type) ->
          { ct with
            S.ct_elements =
              List.filter
                (fun (e : S.element) -> List.mem e.S.el_name visible)
                ct.S.ct_elements })
        schema.S.types
    in
    match
      List.find_opt (fun (ct : S.complex_type) -> ct.S.ct_elements = []) types
    with
    | Some ct ->
      Error
        (Printf.sprintf "stream %s: no visible fields in type %s" s.name
           ct.S.ct_name)
    | None -> Ok (Omf_xschema.Schema_write.to_string { schema with S.types }))

(** ADVERTISE: arbitrate [meta] against the recorded tag (§15), check
    the schema, host the stream and persist both, so a restarted relay
    re-advertises it before any publisher returns. *)
let advertise (t : shard) (name : string) (meta : (string * string) list)
    (schema : string) : (stream, string) result =
  let found = Hashtbl.find_opt t.streams name in
  let current =
    match found with Some s when s.advert <> [] -> Some s.advert | _ -> None
  in
  match Proto.gate_advert ~relay_id:t.relay_id ~current name meta with
  | Error msg ->
    Counters.incr t.counters "advert_refused";
    Error msg
  | Ok kvs -> (
    match Omf_xschema.Schema.of_string schema with
    | _ ->
      let s =
        match found with
        | Some s ->
          s.schema <- schema;
          s
        | None -> add_stream t name schema
      in
      Counters.incr t.counters "advertisements";
      if meta <> [] then Counters.incr t.counters "advert_meta";
      (match store_handle t s with
      | None -> ()
      | Some st -> Store.set_schema st schema
      | exception Store.Store_error msg ->
        Counters.incr t.counters "store_errors";
        Log.err (fun m -> m "store %s: %s" name msg));
      persist_advert t s kvs;
      Ok s
    | exception Omf_xschema.Schema.Schema_error m ->
      Error (Printf.sprintf "advertise %s: %s" name m))

(** A new publisher's trace context (doc/TRACE.md, PROTOCOLS.md §17).
    Head sampling happens here, once per publisher: a [supplied]
    context (a capture point or an upstream relay already decided) is
    adopted verbatim; otherwise this relay draws the sampling decision.
    The unsampled case still mints ids so the slow-span always-record
    path has a trace to attribute to. [None] iff tracing is off. *)
let publisher_trace (t : shard) (s : stream) (supplied : Trace.ctx option) =
  match t.trace with
  | None -> None
  | Some col ->
    let ctx =
      match supplied with
      | Some ctx -> ctx
      | None -> Trace.make ~sampled:(Trace.sample col) ()
    in
    s.trace_ctx <- Some ctx;
    Some ctx

(** Add publisher [c] to [s]. It starts paused when the stream is
    already congested, or while it may not be read at all. *)
let join_publishers (t : shard) (s : stream) (c : conn) =
  s.publishers <- c :: s.publishers;
  if stream_congested t s || not (publisher_read_ok t c) then
    Rconn.set_read_intent c.io false

(** Is [c] a replication link ({!adopt_replica})? *)
let is_replica (c : conn) =
  match c.role with Publisher { replica = Some _; _ } -> true | _ -> false

(** PROMOTE: fsync [s]'s store, then take write ownership at a bumped
    epoch; the epoch held afterwards. Idempotent on a stream already
    owned here. *)
let promote (t : shard) (s : stream) : int =
  let kvs = advert_info t s in
  let origin, epoch = Proto.tag kvs ~relay_id:t.relay_id in
  if String.equal origin t.relay_id then epoch
  else begin
    let epoch = epoch + 1 in
    (* the source may be gone for good: every replicated frame must be
       on disk before this relay owns the stream *)
    sync_stream t s;
    persist_advert t s (Proto.with_origin kvs ~origin:t.relay_id ~epoch);
    Counters.incr t.counters "promotes";
    (* any live replication link into this stream predates the
       ownership change: doom it so its epoch check re-runs *)
    List.iter
      (fun pc -> if is_replica pc then Rconn.doom pc.io "stream promoted")
      s.publishers;
    Log.info (fun m ->
        m "stream %s promoted: now %s@%d (was %s)" s.name t.relay_id epoch
          origin);
    epoch
  end

(** Serve one decoded control request. {!dispatch} has already refused
    role conflicts and moved a command naming another shard's stream
    to that shard. *)
let handle_control (t : shard) (c : conn) (req : Proto.request) =
  let hosted cmd stream k =
    match Hashtbl.find_opt t.streams stream with
    | Some s -> k s
    | None -> reply_err t c (Proto.unknown_stream cmd stream)
  in
  match req with
  | Proto.Hello _ when c.greeted ->
    protocol_reject t c "hello: repeated on this connection"
  | Proto.Hello creds -> handle_hello t c creds
  | Proto.Stats -> reply_ok c (Proto.encode_stats (stats t))
  | Proto.Advertise { stream; meta; schema } -> (
    match advertise t stream meta schema with
    | Ok _ -> reply_ok c ""
    | Error msg -> reply_err t c msg)
  | Proto.Publish { stream; acks; trace } ->
    if Governor.health t.governor = Governor.Overloaded then
      (* shed by class: new ingress is refused retryably while
         descriptor/control traffic (ADVERTISE, DESCRIBE, STATS, live
         SUBSCRIBE) still flows, so streams stay decodable *)
      reply_busy t c "publish"
    else
      hosted "publish" stream @@ fun s ->
      let origin, _ = Proto.tag (advert_info t s) ~relay_id:t.relay_id in
      if not (String.equal origin t.relay_id) then
        (* the replication write gate (PROTOCOLS.md §15): a mirrored
           stream takes appends only from its replication link *)
        reply_err t c (Proto.read_only "publish" stream origin)
      else (
        let become ~acks ~acked reply_body =
          c.role <-
            Publisher
              { stream = s; acks; replica = None; acked
              ; ptrace = publisher_trace t s trace };
          join_publishers t s c;
          Counters.incr t.counters "publishers";
          reply_ok c reply_body
        in
        match store_handle t s with
        | None ->
          become ~acks:false ~acked:0 (Proto.encode_published None)
        | Some st ->
          (* Store-backed: report the durable watermark. An [acks=1]
             publisher resumes from it — it resends every buffered frame
             at or past [durable] and numbers new frames from it, so the
             watermark must be exact at the handshake: sync first,
             making [durable = tail]. (Without the sync a fresh
             publisher racing a dead one's unsynced appends would have
             its first [tail - durable] frames mistaken for resends.) *)
          if acks then ignore (Store.sync st);
          let durable = Store.durable st in
          become ~acks ~acked:durable
            (Proto.encode_published (Some durable))
        | exception Store.Store_error msg ->
          Counters.incr t.counters "store_errors";
          reply_err t c (Printf.sprintf "publish %s: store: %s" stream msg))
  | Proto.Subscribe { stream; from } ->
    if
      Governor.health t.governor = Governor.Overloaded
      && Option.value from ~default:(-1) >= 0
    then
      (* a stored replay would queue an arbitrary backlog against an
         exhausted budget; live (tail) subscriptions drain the shard
         and are still admitted *)
      reply_busy t c "subscribe"
    else
      hosted "subscribe" stream @@ fun s ->
      (match scoped_schema s c.creds with
      | Ok schema -> (
        (* the reply goes first so the scoped schema precedes the
           replayed descriptors, then any stored replay *)
        let join offset ~skip_until replay =
          reply_ok c
            (Proto.encode_schema_reply { Proto.offset; meta = []; schema });
          c.role <- Subscriber { stream = s; skip_until; replay };
          List.iter
            (fun d ->
              enqueue_entry c ~droppable:false (Slice.of_bytes d);
              Counters.incr t.counters "frames_out")
            s.descriptors;
          s.subscribers <- s.subscribers @ [ c ];
          Counters.incr t.counters "subscriptions"
        in
        match Option.map (fun from -> (from, store_handle t s)) from with
        | None | Some (_, None) ->
          (* [from=] against a memory-only relay degrades to a live
             subscription (the reply carries no offset line, which
             tells the session that offsets are not tracked) *)
          join None ~skip_until:(-1) None
        | Some (from, Some st) ->
          (* [start] is where delivery begins: the tail for a live-only
             subscription (from=-1), otherwise the requested offset
             clamped up past retention. When the subscriber is {e ahead}
             of the store (it outlived a crash that lost unsynced
             appends), [start > tail]: nothing is replayed and the
             [skip_until] filter elides the re-appended offsets below
             [start]. *)
          let tail = Store.tail st in
          let start = if from < 0 then tail else max from (Store.oldest st) in
          if from >= 0 && start > from then
            Counters.incr t.counters "store_replay_clamped";
          (* replay runs chunked off the writable callback
             ({!pump_replay}): the first pump goes out now, the rest
             are paced by the subscriber's own drain rate *)
          if start < tail then begin
            Counters.incr t.counters "store_replays";
            join (Some start) ~skip_until:start
              (Some { r_store = st; r_next = start });
            pump_replay t c
          end
          else join (Some start) ~skip_until:start None
        | exception Store.Store_error msg ->
          Counters.incr t.counters "store_errors";
          reply_err t c (Printf.sprintf "subscribe %s: store: %s" stream msg))
      | Error m -> reply_err t c (Proto.access_denied "subscribe" m))
  | Proto.List ->
    (* relay-wide: the pins table names every stream any shard hosts,
       so a mirror scanning for streams needs no shard awareness *)
    let sh = t.shared in
    Mutex.lock sh.pins_mu;
    let names = Hashtbl.fold (fun s _ acc -> s :: acc) sh.pins [] in
    Mutex.unlock sh.pins_mu;
    Counters.incr t.counters "lists";
    reply_ok c (Proto.encode_list (List.sort compare names))
  | Proto.Describe stream -> (
    hosted "describe" stream @@ fun s ->
    match scoped_schema s c.creds with
    | Ok schema ->
      Counters.incr t.counters "describes";
      (* §17: when tracing is on and the stream's publisher carries a
         context, serve it as a [trace=] metadata line — a mirror
         DESCRIBEs before replicating and joins the same trace, so
         spans line up across relays. Never persisted (the mirror
         strips it before re-advertising). *)
      let meta = Proto.with_trace (advert_info t s) s.trace_ctx in
      reply_ok c
        (Proto.encode_schema_reply { Proto.offset = None; meta; schema })
    | Error m -> reply_err t c (Proto.access_denied "describe" m))
  | Proto.Promote stream ->
    hosted "promote" stream @@ fun s ->
    reply_ok c (Proto.encode_epoch (promote t s))

(** The still-roleless connection [c] names a stream pinned to another
    shard: it migrates there (fd, decoder backlog, write queue and MAC
    state travel; the command is dispatched again on the target loop,
    then any buffered frames — per-connection order preserved). *)
let rec route (src : shard) (target : shard) (c : conn) (req : Proto.request) =
  Counters.incr src.counters "shard_handoffs";
  Hashtbl.remove src.conns c.cid;
  (* the write queue travels with the connection: detach takes its
     bytes off the source loop's sum, adopt puts them on the target's *)
  Rconn.detach c.io;
  Reactor.inject target.reactor (fun () ->
      if target.state = Running && Rconn.alive c.io then begin
        c.home <- target;
        Hashtbl.replace target.conns c.cid c;
        Rconn.adopt target.reactor c.io;
        dispatch target c req
      end
      else Rconn.doom c.io "shard draining")

(** Run one decoded control request on the shard that owns its stream.
    A connection with a role is wedded to its shard: it may not
    PUBLISH or SUBSCRIBE again, nor name another shard's stream. *)
and dispatch (t : shard) (c : conn) (req : Proto.request) =
  match (req, Proto.target req, c.role) with
  | ( (Proto.Publish _ | Proto.Subscribe _),
      Some (cmd, _),
      (Publisher _ | Subscriber _) ) ->
    reply_err t c (cmd ^ ": connection already has a role")
  | _, Some (cmd, stream), role -> (
    let claim = match req with Proto.Advertise _ -> true | _ -> false in
    match (stream_owner ~claim t stream, role) with
    | owner, _ when owner == t ->
      handle_control t c req;
      if claim then release_pin t stream
    | owner, Pending -> route t owner c req
    | _, (Publisher _ | Subscriber _) ->
      reply_err t c
        (Printf.sprintf "%s: stream %s is pinned to another shard" cmd stream))
  | _, None, _ -> handle_control t c req

(** The minor heap of a shard's domain, in words: 48k words, 384 KiB,
    where the runtime's default is 256k words (2 MiB, all of it
    resident once the loop has cycled through it). A relayed event
    allocates 5 to 19 words on the shard through bench/e2e's plain
    workloads (a plain one: the view of its body and its share of the
    loop rounds), so this nursery holds thousands of events between
    minor collections. Not smaller: direct major allocations (large
    copies, store reads) ask for a major slice, and with it a minor
    collection, each nursery's worth of words, and at 32k words
    science-16k and paper-a-live ran more minor collections per event
    than the default nursery did (doc/REACTOR.md §7). *)
let shard_minor_heap_words = 49_152

(** Give the calling shard domain its {!shard_minor_heap_words}
    nursery, once, at the first message it relays. On OCaml 5 the
    resize is a minor collection of every domain, about half a
    millisecond; at loop start it held up relayd's start-up (and every
    embedder's [Relay.start]) by as much, while the few words a shard
    allocates before its first message touch little of the default
    nursery, and the resize gives those pages back. [Gc.set] sizes the
    calling domain only: an embedder's own domains keep theirs
    ([OCAMLRUNPARAM]'s [s]). relayd runs shard 0 on its main domain, so
    there shard 0's resize sizes the main domain, which the metrics
    loop and the mirror's threads share. *)
let size_nursery (t : shard) =
  t.nursery_sized <- true;
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = shard_minor_heap_words }

(** Fan [frame] out at store [offset], timing the fan-out as a
    [fanout_enqueue] span when it is traced. *)
let relay_at (t : shard) (s : stream) (frame : Slice.t) ~offset ~trace =
  match trace with
  | None -> fan_out t s frame ~offset ~trace
  | Some ctx ->
    let f0 = Clock.now_us () in
    fan_out t s frame ~offset ~trace;
    trace_span t ctx ~stage:"fanout_enqueue" ~stream:s.name ~t0_us:f0

(** One inbound frame of [c], which may borrow [c]'s input buffer (see
    {!conn_frame}): stream frames fan out straight from it, and only a
    cached descriptor or a control request is copied. *)
let handle_frame (t : shard) (c : conn) (frame : Slice.t) =
  Counters.incr t.counters "frames_in";
  if Slice.length frame = 0 then protocol_reject t c "empty frame"
  else
    let kind = Slice.get frame 0 in
    let is_stream_frame =
      Char.equal kind Proto.frame_descriptor
      || Char.equal kind Proto.frame_message
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
        let is_message = Char.equal kind Proto.frame_message in
        let s = p.stream in
        let fresh_descriptor =
          p.replica <> None && (not is_message)
          && not (known_descriptor s frame)
        in
        let admit_us = Clock.now_us () in
        (* the message's trace context, if any: stage spans below are
           recorded against it (sampled, or slow enough to force) *)
        let trace = if is_message then p.ptrace else None in
        if is_message then begin
          Counters.incr t.counters "events_relayed";
          if not t.nursery_sized then size_nursery t
        end;
        (match s.store with
        | Some st when is_message -> (
          let ap0 = if trace = None then 0 else Clock.now_us () in
          match Store.append_slice st frame with
          | off ->
            Counters.incr t.counters "store_appends";
            (match trace with
            | Some ctx ->
              trace_span t ctx ~stage:"store_append" ~stream:s.name ~t0_us:ap0
            | None -> ());
            if p.acks then schedule_ack_flush t s;
            relay_at t s frame ~offset:off ~trace
          | exception Store.Store_error msg ->
            (* refuse loudly: fanning out an unstored frame would let
               the publisher believe it is durable *)
            Counters.incr t.counters "store_errors";
            protocol_reject t c
              (Printf.sprintf "store %s: append: %s" s.name msg))
        | Some st ->
          (try ignore (Store.append_descriptor st (Slice.to_bytes frame))
           with Store.Store_error msg ->
             Counters.incr t.counters "store_errors";
             Log.err (fun m -> m "store %s: descriptor: %s" s.name msg));
          relay_at t s frame ~offset:(-1) ~trace
        | None -> relay_at t s frame ~offset:(-1) ~trace);
        (* publish -> queue admission latency: the full cost of
           accepting this message (store append + fan-out enqueues) *)
        if is_message then begin
          Counters.observe t.counters "publish_admit_us"
            (Clock.now_us () - admit_us);
          match trace with
          | Some ctx ->
            trace_span t ctx ~stage:"publish_admit" ~stream:s.name
              ~t0_us:admit_us
          | None -> ()
        end;
        (match p.replica with
        | Some r when Rconn.alive c.io ->
          if is_message then r.on_frame `Message
          else if fresh_descriptor then r.on_frame `Descriptor
        | Some _ | None -> ())
      | Pending -> protocol_reject t c "stream frame before PUBLISH"
      | Subscriber _ ->
        protocol_reject t c "subscriber connections are receive-only"
    else
      match c.role with
      | Publisher { replica = Some _; _ } ->
        (* a replication link carries the source's stream frames only:
           anything else means it lost sync with the source *)
        Counters.incr t.counters "frames_rejected";
        Rconn.doom c.io "replica: control frame from the source"
      | Publisher _ | Pending -> (
        match Proto.decode_request (Slice.to_bytes frame) with
        | Ok req -> dispatch t c req
        | Error (Proto.Malformed msg) -> reply_err t c msg
        | Error (Proto.Unknown msg) -> protocol_reject t c msg)
      | Subscriber _ ->
        (* replies would interleave with relayed frames: refuse *)
        protocol_reject t c "subscriber connections are receive-only"

(** Close a connection after this many frames fail authentication. *)
let mac_reject_limit = 3

(** A frame of [c] that failed to decode, counted and logged. Failed
    authentication skips the frame until the reject limit dooms [c] (a
    replica link at once: a skip would gap it); any other fault dooms [c]. *)
let decode_reject (t : shard) (c : conn) layer offset reason =
  Counters.incr t.counters "frames_rejected";
  let msg = Decode.message layer offset reason in
  match reason with
  | Decode.Bad_mac | Decode.Replayed ->
    c.mac_rejects <- c.mac_rejects + 1;
    Log.warn (fun m ->
        m "conn %d: rejected frame (%d/%d): %s" c.cid c.mac_rejects
          mac_reject_limit msg);
    if is_replica c || c.mac_rejects >= mac_reject_limit then
      Rconn.doom c.io "authentication failures"
  | _ ->
    Log.warn (fun m -> m "conn %d: rejected frame: %s" c.cid msg);
    Rconn.doom c.io msg

(* ------------------------------------------------------------------ *)
(* Reactor callbacks                                                    *)
(* ------------------------------------------------------------------ *)

(* the frame {!relay_input} relayed is done with *)
let end_input (t : shard) =
  t.src_lender <- None;
  t.src_framed <- false;
  t.src_inflated <- false;
  (* a seeded block no fan-out took (a control frame) must not be
     found by the next one *)
  if t.comp_cache_seq > t.fanout_seq then t.comp_cache_seq <- -1

(** Relay [frame], an inbound body of [c], with the shard's fan-out
    source set to it: it borrows [c]'s input ([framed]: right behind
    its length header), or is [c]'s inflated frame. *)
let relay_input (t : shard) (c : conn) (frame : Slice.t) ~framed ~inflated =
  t.src_lender <- c.lend;
  t.src_framed <- framed;
  t.src_inflated <- inflated;
  (try handle_frame t c frame
   with e ->
     end_input t;
     raise e);
  end_input t

(** A [comp=lz] body of [c]: inflate it into [c]'s lent buffer — after
    the MAC check, mirroring the outbound [seal (compress _)] order —
    and seed the fan-out's block cache with the publisher's own block
    ([framed]: its length header is right in front of it), so no
    compressed queue pays for a second LZ pass. *)
let inflate_input (t : shard) (c : conn) (blk : Slice.t) ~framed =
  let raw =
    Compress.decompress_sub ?into:c.inflate_into blk.buf ~pos:blk.off
      ~len:(Slice.length blk)
  in
  if c.inflated.buf != raw then c.inflated <- Slice.of_bytes raw;
  t.comp_cache_seq <- t.fanout_seq + 1;
  t.comp_cache_blk <- blk;
  t.comp_cache_framed <- framed;
  t.comp_cache_lender <- c.lend;
  relay_input t c c.inflated ~framed:false ~inflated:true

(** One complete inbound frame, borrowing [c]'s decoder buffer until
    the read's dispatch returns (MAC frames are verified in place, and
    compressed ones inflate into a buffer of [c]'s). The callbacks
    consult [c.home] rather than a captured shard so a handed-off
    connection dispatches on its adopting shard. A frame that fails to
    decode (its MAC, its LZ block or its body) goes to {!decode_reject}. *)
let conn_frame (c : conn) (frame : Slice.t) =
  let t = c.home in
  try
    match c.mac with
    | None ->
      if c.comp then inflate_input t c frame ~framed:true
      else relay_input t c frame ~framed:true ~inflated:false
    | Some st ->
      Macframe.open_in_place st frame.buf frame.off (Slice.length frame);
      let body =
        Slice.sub frame Macframe.overhead (Slice.length frame - Macframe.overhead)
      in
      if c.comp then inflate_input t c body ~framed:false
      else relay_input t c body ~framed:false ~inflated:false
  with Decode.Error { layer; offset; reason } -> decode_reject t c layer offset reason

let conn_closed (c : conn) (reason : string) =
  let t = c.home in
  clear_grace c;
  Hashtbl.remove t.conns c.cid;
  (match c.role with
  | Subscriber { stream = s; _ } ->
    s.subscribers <- List.filter (fun o -> o != c) s.subscribers;
    maybe_resume_stream t s
  | Publisher { stream = s; replica; _ } ->
    s.publishers <- List.filter (fun o -> o != c) s.publishers;
    Option.iter (fun (r : replica) -> r.on_close ~local:(t.state <> Running))
      replica
  | Pending -> ());
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

(** A new connection of shard [t] on [fd], whose frame modes [mac] and
    [comp] may already be negotiated (loop-thread only). *)
let new_conn (t : shard) (fd : Unix.file_descr) ~mac ~comp : conn =
  let cid = t.next_cid in
  t.next_cid <- cid + t.cid_stride;
  let cell = ref None in
  let the_conn () = Option.get !cell in
  let io =
    Rconn.attach t.reactor fd
      ~on_input:(fun _ frame -> conn_frame (the_conn ()) frame)
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
        | `In -> Counters.add c.home.counters "bytes_in" n
        | `Out ->
          Counters.add c.home.counters "bytes_out" n;
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
    { cid; io; creds = []; greeted = false; role = Pending; grace_timer = None
    ; congesting = false; mac = None; mac_rejects = 0; comp; throttled = false
    ; bucket; trace_mark = None; home = t; lend = Some io
    ; inflated = Slice.of_bytes Bytes.empty
    ; inflate_into =
        Some
          (fun n ->
            let b = (the_conn ()).inflated.buf in
            if Bytes.length b = n then b else Bytes.create n) }
  in
  cell := Some c;
  Option.iter (arm_mac c) mac;
  Hashtbl.replace t.conns cid c;
  Counters.incr t.counters "connections";
  c

(** Wire an accepted socket into shard [t] (loop-thread only; shard 0's
    accept handler, {!deal}, reaches another shard through
    {!Reactor.inject}). *)
let adopt_fd (t : shard) (fd : Unix.file_descr) =
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
    let c = new_conn t fd ~mac:None ~comp:false in
    Log.debug (fun m -> m "conn %d accepted (shard %d)" c.cid t.shard_id)
  end

(* ------------------------------------------------------------------ *)
(* Identity, recovery and the shard loop                                *)
(* ------------------------------------------------------------------ *)

let gen_relay_id () : string =
  let seed =
    Printf.sprintf "%.9f:%d:relay-id" (Unix.gettimeofday ()) (Unix.getpid ())
  in
  String.sub (Omf_util.Sha256.hex (Omf_util.Sha256.digest seed)) 0 12

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
         Store.mkdir_p cfg.Store.root;
         let oc = open_out path in
         output_string oc (id ^ "\n");
         close_out oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      id)

(** Reopen every stored stream assigned to this shard: recover the log
    (torn-tail truncation happens here), re-advertise the persisted
    schema and replay the stored descriptor frames into the stream's
    cache, so late joiners can decode history without the original
    publisher. A log without a valid schema cannot be served and is
    closed again. Runs before the loop (single-threaded). *)
let recover_streams (t : shard) (cfg : Store.config) (streams : string list) =
  List.iter
    (fun name ->
      match Store.open_stream cfg name with
      | st -> (
        Counters.incr t.counters "store_streams_recovered";
        Log.info (fun m ->
            m "store: recovered stream %s at offset %d (%d segment%s, \
               durable %d)"
              name (Store.tail st) (Store.segments st)
              (if Store.segments st = 1 then "" else "s")
              (Store.durable st));
        match Store.schema st with
        | None -> Store.close st
        | Some schema -> (
          match Omf_xschema.Schema.of_string schema with
          | _ ->
            let s = add_stream t ~store:st name schema in
            (* restore the advertisement metadata — registry binding
               and origin/epoch tag — exactly as last persisted, so a
               mirrored stream stays read-only across the restart and
               registry-bound consumers resolve as before *)
            s.advert <- Store.meta st;
            if s.advert <> [] then
              Counters.incr t.counters "advert_meta_recovered";
            List.iter
              (fun d -> fan_out t s (Slice.of_bytes d) ~offset:(-1) ~trace:None)
              (Store.descriptors st)
          | exception Omf_xschema.Schema.Schema_error msg ->
            Log.err (fun m ->
                m "store %s: recovered schema rejected: %s" name msg);
            Store.close st))
      | exception Store.Store_error msg ->
        Counters.incr t.counters "store_errors";
        Log.err (fun m -> m "store %s: recovery failed: %s" name msg))
    streams

(** Run the shard's loop on the calling domain until a requested
    shutdown completes its drain. *)
let run_loop (t : shard) : unit =
  (match t.store_cfg with
  | Some cfg ->
    let period =
      match cfg.Store.fsync with Store.Interval s -> s | _ -> 0.1
    in
    store_tick t period
  | None -> ());
  gauge_tick t;
  Reactor.run t.reactor;
  Mutex.protect t.shared.call_mu (fun () ->
      t.exited <- true;
      Condition.broadcast t.shared.call_cv);
  Reactor.dispose t.reactor

(** Shard 0's accept handler: deal each accepted socket out to the
    shards round-robin, shard 0 adopting its own share at once and the
    others through {!Reactor.inject}.

    Governor-aware dealing (doc/OVERLOAD.md): scan the round-robin
    order but skip shards currently Overloaded, so a drowning loop is
    not handed fresh connections while its healthy siblings have room.
    The health read crosses domains unlocked — it is a monotone-ish
    hint, and a stale read only costs one connection landing on a shard
    that was recovering anyway. When every shard is overloaded the
    plain round-robin pick stands (the governor's admission control
    sheds work from there). *)
let deal (shards : shard array) : Unix.file_descr -> unit =
  let n = Array.length shards in
  let next = ref 0 in
  let pick () =
    let first = !next mod n in
    incr next;
    let rec scan k =
      if k = n then shards.(first)
      else
        let cand = shards.((first + k) mod n) in
        if Governor.health cand.governor <> Governor.Overloaded then begin
          if k > 0 then Counters.add cand.counters "accept_deferred" k;
          cand
        end
        else scan (k + 1)
    in
    scan 0
  in
  fun fd ->
    let shard = pick () in
    if shard == shards.(0) then adopt_fd shard fd
    else Reactor.inject shard.reactor (fun () -> adopt_fd shard fd)

(* ------------------------------------------------------------------ *)
(* The relay: shard 0 accepts                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  lsock : Unix.file_descr;
  lreg : Reactor.registration;  (** the listener, on shard 0's loop *)
  port : int;
  shared : shared;  (** the pins table and every shard *)
  domains : unit Domain.t list;  (** the loops {!stop} joins *)
}

let listen ?(host = "127.0.0.1") ?(port = 0) ?relay_id ?(shards = 1)
    ?(policy = Block) ?(max_queue = 256) ?(evict_grace_s = 1.0) ?sndbuf
    ?(auth_keys = []) ?(drain_s = 2.0)
    ?(governor = Governor.config ~budget:0 ()) ?ingress ?trace ?store () : t =
  if shards < 1 then invalid_arg "Relay.listen: shards must be >= 1";
  let lsock, bound_port = Reactor.listener ~host ~port () in
  let relay_id = resolve_relay_id ?relay_id store in
  let shared =
    { pins_mu = Mutex.create (); pins = Hashtbl.create 32; peers = [||]
    ; call_mu = Mutex.create (); call_cv = Condition.create ()
    ; stopped = Atomic.make false }
  in
  let make_shard shard_id =
    let gov = Governor.create governor in
    let t =
      { relay_id; policy; max_queue; evict_grace = evict_grace_s; sndbuf
      ; auth_keys; drain_default_s = drain_s; governor = gov
      ; ingress
      ; trace = Option.map (fun s -> Trace.collector ~shard:shard_id s) trace
      ; reactor = Reactor.create (); streams = Hashtbl.create 8
      ; conns = Hashtbl.create 64; counters = Counters.create (); shard_id
      ; cid_stride = shards; shared; store_cfg = store
      ; fanout_seq = 0; src_lender = None; src_framed = false
      ; src_inflated = false; body_copy_seq = -1
      ; body_copy = Slice.of_bytes Bytes.empty
      ; comp_cache_seq = -1; comp_cache_blk = Slice.of_bytes Bytes.empty
      ; comp_cache_framed = false; comp_cache_lender = None
      ; comp_scratch = Compress.scratch ()
      ; ack_flush_scheduled = false; store_timer = None; gauge_timer = None
      ; next_cid = shard_id + 1; state = Running
      ; drain_timer = None; exited = false; nursery_sized = false }
    in
    Governor.on_transition gov (fun prev next ->
        on_governor_transition t prev next);
    Reactor.set_on_queued t.reactor (Governor.update gov);
    Counters.set t.counters "governor_health" 0;
    t
  in
  let arr = Array.init shards make_shard in
  shared.peers <- arr;
  (* Recover stored streams before any loop runs: pin each stream to a
     shard by name hash (a restart reproduces the same pinning, and
     per-shard store handles stay single-threaded), then let that shard
     reopen its logs. *)
  (match store with
  | Some cfg ->
    let per_shard = Array.make shards [] in
    List.iter
      (fun stream ->
        let sid = Hashtbl.hash stream mod shards in
        Hashtbl.replace shared.pins stream sid;
        per_shard.(sid) <- stream :: per_shard.(sid))
      (Store.streams cfg);
    Array.iteri (fun i streams -> recover_streams arr.(i) cfg streams) per_shard
  | None -> ());
  let lreg =
    Reactor.accept_on arr.(0).reactor lsock
      ~on_error:(fun _ -> Counters.incr arr.(0).counters "accept_errors")
      (deal arr)
  in
  let domains =
    List.init (shards - 1) (fun i ->
        Domain.spawn (fun () -> run_loop arr.(i + 1)))
  in
  Log.info (fun m ->
      m "relay listening on %s:%d (%d shard%s, policy %s, max queue %d%s)"
        host bound_port shards
        (if shards = 1 then "" else "s")
        (policy_to_string policy) max_queue
        (match store with
        | Some cfg ->
          Printf.sprintf ", store %s fsync %s" cfg.Store.root
            (Store.fsync_policy_to_string cfg.Store.fsync)
        | None -> ""));
  { lsock; lreg; port = bound_port; shared; domains }

(** Shard 0's loop on the calling thread, until {!stop} has drained it. *)
let run (r : t) = run_loop r.shared.peers.(0)

let start (r : t) : t =
  { r with domains = Domain.spawn (fun () -> run r) :: r.domains }

let port (r : t) = r.port
let shard_count (r : t) = Array.length r.shared.peers
let relay_id (r : t) = r.shared.peers.(0).relay_id

(** Relay-wide counter totals (per-shard counters summed), every
    shard's gauges as of its last {!gauge_tick} or STATS reply. *)
let stats (r : t) : (string * int) list = counter_snapshot r.shared

(** Unwritten bytes queued on every shard's loop: what the shards'
    governors count. *)
let governor_used (r : t) : int =
  Array.fold_left
    (fun acc s -> acc + Reactor.queued_bytes s.reactor)
    0 r.shared.peers

(** Run [f] on [sh]'s loop (stream records are loop-thread only) and
    wait for its result; [None] if the loop exited without running it. *)
let on_loop (sh : shard) (f : unit -> 'a) : 'a option =
  let x = sh.shared in
  let result = ref None in
  Mutex.protect x.call_mu (fun () ->
      if not sh.exited then
        (* injected under [call_mu]: the loop cannot exit and close its
           wake pipe in between *)
        Reactor.inject sh.reactor (fun () ->
            (* an exception must not escape into the loop *)
            let v = try Ok (f ()) with e -> Error e in
            Mutex.protect x.call_mu (fun () ->
                result := Some v;
                Condition.broadcast x.call_cv));
      while Option.is_none !result && not sh.exited do
        Condition.wait x.call_cv x.call_mu
      done);
  Option.map (function Ok v -> v | Error e -> raise e) !result

let stopping (r : t) = Atomic.get r.shared.stopped

(** [f] on the loop of the shard hosting [stream], with its record. *)
let on_stream (r : t) (stream : string) (f : shard -> stream -> 'a) :
    ('a, string) result =
  let owner = stream_owner r.shared.peers.(0) stream in
  if stopping r then Error "relay is shutting down"
  else
    match
      on_loop owner (fun () ->
          Option.map (f owner) (Hashtbl.find_opt owner.streams stream))
    with
    | Some (Some v) -> Ok v
    | Some None -> Error ("no shard hosts stream " ^ stream)
    | None -> Error "relay is shutting down"

(** Install a scope policy on the shard hosting [stream], on that
    shard's own loop, and wait until it is in place. *)
let set_scope (r : t) ~(stream : string) (policy : scope_policy) : unit =
  match on_stream r stream (fun _ s -> s.scope <- policy) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Relay.set_scope: " ^ msg)

(** Every shard's recorded trace spans, merged and time-ordered. Safe
    from any thread. *)
let trace_spans (r : t) : Trace.span list =
  Array.to_list r.shared.peers
  |> List.concat_map (fun (s : shard) ->
         match s.trace with None -> [] | Some col -> Trace.spans col)
  |> List.sort (fun a b -> compare a.Trace.sp_start_us b.Trace.sp_start_us)

(** Close the listener on shard 0's loop, ask every shard to drain on
    its own loop, wait until every loop has exited, then join the loops'
    domains. *)
let stop (r : t) =
  let x = r.shared in
  if Atomic.compare_and_set x.stopped false true then begin
    (* accept nothing more before any loop drains: a socket dealt to a
       shard whose loop has exited would meet a closed wake pipe *)
    ignore
      (on_loop x.peers.(0) (fun () ->
           Reactor.deregister x.peers.(0).reactor r.lreg;
           try Unix.close r.lsock with Unix.Unix_error _ -> ()));
    Array.iter
      (fun s ->
        (* under [call_mu], as in {!on_loop}: a loop that has exited
           has disposed its wake pipe *)
        Mutex.protect x.call_mu (fun () ->
            if not s.exited then
              Reactor.inject s.reactor (fun () -> begin_drain s)))
      x.peers;
    Mutex.protect x.call_mu (fun () ->
        while not (Array.for_all (fun s -> s.exited) x.peers) do
          Condition.wait x.call_cv x.call_mu
        done);
    List.iter Domain.join r.domains
  end

(* ------------------------------------------------------------------ *)
(* Replication links, in process (doc/MIRROR.md)                        *)
(* ------------------------------------------------------------------ *)

(** The §15 write gate: [s] is not owned here, and its recorded tag is
    the source's. *)
let replica_gate (t : shard) (s : stream) (r : replica) :
    (unit, string) result =
  let origin, epoch = Proto.tag (advert_info t s) ~relay_id:t.relay_id in
  if
    String.equal origin t.relay_id
    || (origin, epoch) <> Proto.tag r.meta ~relay_id:""
  then begin
    Counters.incr t.counters "mirror_publish_refused";
    Error (Proto.stale_mirror s.name origin epoch)
  end
  else Ok ()

let claim_replica (r : t) (rep : replica) : (int, string) result =
  (* an unpinned stream goes where store recovery would pin it *)
  let n = Array.length r.shared.peers in
  let home = r.shared.peers.(Hashtbl.hash rep.stream mod n) in
  let owner = stream_owner ~claim:true home rep.stream in
  let claim () =
    let result =
      Result.bind (advertise owner rep.stream rep.meta rep.schema) (fun s ->
          Result.map
            (fun () ->
              (* where the next replicated frame lands *)
              Option.fold ~none:(-1) ~some:Store.tail (store_handle owner s))
            (replica_gate owner s rep))
    in
    release_pin owner rep.stream;
    result
  in
  Option.value (on_loop owner claim) ~default:(Error "relay is shutting down")

let adopt_replica (r : t) (rep : replica) (fd : Unix.file_descr)
    ~(mac : Macframe.state option) ~(comp : bool) : (unit, string) result =
  let adopt (t : shard) (s : stream) =
    (if t.state <> Running then Error "relay is shutting down"
     else (* a PROMOTE may have run since the claim *)
       replica_gate t s rep)
    |> Result.map @@ fun () ->
    let c = new_conn t fd ~mac ~comp in
    c.greeted <- true;
    if c.mac <> None then Counters.incr t.counters "auth_sessions";
    if c.comp then Counters.incr t.counters "comp_sessions";
    c.role <-
      Publisher
        { stream = s; acks = false; replica = Some rep; acked = 0
        ; ptrace = publisher_trace t s rep.trace };
    join_publishers t s c;
    Counters.incr t.counters "mirror_publishers"
  in
  Result.join (on_stream r rep.stream adopt)

let unlink_replica (r : t) (rep : replica) : unit =
  ignore @@ on_stream r rep.stream
  @@ fun _ s ->
  List.iter
    (fun c ->
      match c.role with
      | Publisher { replica = Some x; _ } when x == rep ->
        Rconn.doom c.io "replication link stopped"
      | _ -> ())
    s.publishers

let promote_stream (r : t) ~(stream : string) : (int, string) result =
  on_stream r stream promote

let store_tail (r : t) ~(stream : string) : int option =
  match on_stream r stream (fun _ s -> Option.map Store.tail s.store) with
  | Ok tail -> tail
  | Error _ -> None

module Client = Relay_client.Client
