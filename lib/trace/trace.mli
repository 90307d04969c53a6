(** Sampled, low-overhead distributed tracing for the frame path
    (doc/TRACE.md, PROTOCOLS.md §17).

    A {e trace} is one publish session's journey through the relay
    fabric: the publisher mints a {!ctx} (64-bit trace id, span id,
    sampled flag) and carries it as [trace=] metadata on PUBLISH; every
    hop that touches a frame of that session — admission, store append,
    fan-out enqueue, socket flush, delivery — records a {!span} against
    the context into its local {!collector}. A mirror carries the
    source's context into the replica relay that hosts its link, so one
    trace crosses relays.

    The cost model is the point: the {e untraced} path does no
    allocation and no locking — the per-frame check is one option match
    plus (when tracing is enabled at all) two monotonic-clock reads.
    Spans are recorded only when the context was head-sampled at
    creation, or when a span's duration breaches the collector's
    slow-span threshold (always-record for outliers, whatever the
    sampling decision). *)

(* ------------------------------------------------------------------ *)
(* Trace context                                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  trace_id : int64;  (** the whole end-to-end trace *)
  span_id : int64;  (** the minting hop; parent of every recorded span *)
  sampled : bool;  (** head-sampling decision, made once at creation *)
}

val make : sampled:bool -> unit -> ctx
(** Fresh random context. The [sampled] flag is the head-sampling
    decision: it travels with the context, so every hop agrees without
    re-rolling dice. *)

val to_string : ctx -> string
(** Compact wire codec: ["<trace:16hex>-<span:16hex>-<flags:2hex>"]
    (36 bytes; flags bit 0 = sampled). This is the [trace=] metadata
    value (PROTOCOLS.md §17). *)

val of_string : string -> ctx option
(** Parse {!to_string} output; [None] on anything malformed (an old
    peer echoing garbage must not kill the connection). *)

val id_to_string : int64 -> string
(** 16-digit lower-case hex, as used inside {!to_string}. *)

(* ------------------------------------------------------------------ *)
(* Settings                                                             *)
(* ------------------------------------------------------------------ *)

type settings = {
  sample : float;  (** head-sampling rate in [0,1] for publishers that
                       arrive without a context of their own *)
  buffer : int;  (** per-collector span ring capacity *)
  slow_us : int;  (** always-record spans at least this long; [0]
                      disables the slow path *)
}

val settings : ?sample:float -> ?buffer:int -> ?slow_us:int -> unit -> settings
(** Defaults: [sample = 0.], [buffer = 4096], [slow_us = 0]. [sample]
    is clamped into [0,1]; [buffer] to at least 16. *)

(* ------------------------------------------------------------------ *)
(* Spans and collectors                                                 *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_trace : int64;
  sp_id : int64;  (** fresh per recorded span *)
  sp_parent : int64;  (** the context's span id *)
  sp_stage : string;  (** e.g. ["store_append"], ["deliver"] *)
  sp_stream : string;
  sp_shard : int;  (** recording collector's shard *)
  sp_start_us : int;  (** {!Omf_util.Clock.now_us} at span start *)
  sp_dur_us : int;
}

type collector
(** A fixed-capacity ring of spans. [record]/[spans] are mutex-guarded
    (export runs on the HTTP thread while shard loops record);
    sampling draws from a collector-local PRNG and belongs to the
    owning loop thread, like the rest of the shard state. *)

val collector : ?shard:int -> settings -> collector
(** [shard] defaults to [0]. *)

val sample : collector -> bool
(** One head-sampling draw at the configured rate (for publishers that
    supplied no context). Owning-thread only. *)

val should_record : collector -> sampled:bool -> dur_us:int -> bool
(** The record gate: the context was sampled, or the span breached the
    slow threshold. *)

val record :
  collector ->
  trace:int64 ->
  parent:int64 ->
  stage:string ->
  stream:string ->
  start_us:int ->
  dur_us:int ->
  unit
(** Append one span (fresh span id); the oldest span is overwritten
    when the ring is full. Call only after {!should_record} — this is
    what keeps the untraced path allocation-free. *)

val spans : collector -> span list
(** Snapshot, oldest first. Any thread. *)

val recorded : collector -> int
(** Total spans ever recorded (including overwritten ones). *)

val dropped : collector -> int
(** Spans overwritten by ring wrap-around. *)

val clear : collector -> unit

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

val chrome_json : span list -> string
(** Chrome trace-event JSON (load in [chrome://tracing] / Perfetto):
    one complete event (["ph":"X"]) per span, [pid] = shard, with
    trace/span/parent ids and the stream name in [args]. *)
