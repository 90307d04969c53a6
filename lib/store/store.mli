(** Durable per-stream store: a segmented append-only log.

    Each stream gets a directory under the store root holding

    - [meta.log] — the stream's self-describing metadata, in
      descriptor-before-first-use order like {!Omf_journal}: the
      advertised schema plus every NDR descriptor frame seen, so a
      recovered stream can be re-advertised and late joiners can decode
      stored messages without the original publisher; and
    - numbered segment files ([<base>.seg], 20-digit decimal base
      offset) holding message frames.

    Both use the same record framing: [u32 len | u32 crc32 | body],
    big-endian, CRC-32 over the body. Appends go to the newest (tail)
    segment; when it reaches [segment_bytes] it is fsynced, sealed, and
    a new tail is created. One record reader serves recovery, the
    [meta.log] load and replay. Recovery walks only the tail segment,
    truncates a torn final record, and resumes appending — sealed
    segments are trusted structurally and CRC-checked on read.

    Offsets are dense per-stream message sequence numbers starting at
    0; [oldest]..[tail-1] are readable, [durable-1] is the newest
    offset guaranteed on disk (per the fsync policy). Handles are not
    thread-safe: the relay gives each shard its own handles. *)

exception Store_error of string

type fsync_policy =
  | Never  (** never fsync; durability = OS page cache (survives
               SIGKILL, not power loss) *)
  | Every_n of int  (** fsync once per [n] appends *)
  | Interval of float  (** caller fsyncs via {!sync} on a timer *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["never"], ["every=N"], ["interval=SECS"]. *)

val fsync_policy_to_string : fsync_policy -> string

type config = {
  root : string;  (** store root directory; created on demand *)
  segment_bytes : int;  (** roll threshold per segment file *)
  fsync : fsync_policy;
  retain_segments : int;  (** keep at most this many segments; 0 = all *)
  retain_bytes : int;  (** total bytes across segments; 0 = unlimited *)
  retain_age : float;  (** drop sealed segments older than this; 0 = never *)
  compress : bool;
      (** rewrite each segment as one LZ block when it is sealed
          (doc/COMPRESS.md): the tail stays plain so appends and
          torn-tail recovery are untouched, reads sniff the per-file
          magic and inflate transparently, and {!bytes} — hence the
          retention budgets — counts the compressed on-disk size *)
}

val default_config : root:string -> config
(** 64 MiB segments, [Interval 0.1], no retention limits. *)

type t

val mkdir_p : string -> unit
(** Create a directory and its missing parents, as [mkdir -p] (the
    relay keeps its id file in the store root). *)

val open_stream : config -> string -> t
(** Open (or create) the stream's log and recover: replay [meta.log],
    scan the tail segment validating CRCs, truncate any torn final
    record, and position for appending. Raises {!Store_error} on
    structural corruption that truncation can't repair. *)

val stream : t -> string
val close : t -> unit
(** Fsync and close; idempotent. *)

(** {2 Appending} *)

val append : t -> Bytes.t -> int
(** Append one message frame (the verbatim relayed ['M'] frame);
    returns its offset. Rolls the segment and applies retention as
    needed, and fsyncs per the policy. Record framing is staged in a
    reusable per-store buffer, so an append allocates nothing. *)

val append_slice : t -> Omf_util.Slice.t -> int
(** {!append} from a buffer view — the zero-copy frame path appends
    straight from the shared fanout slice. *)

val append_descriptor : t -> Bytes.t -> bool
(** Record a descriptor frame in [meta.log] unless an identical one
    (by SHA-256) was already stored; returns [true] if newly written.
    Descriptor writes are always fsynced before returning so no stored
    message can outlive its descriptor. *)

val set_schema : t -> string -> unit
(** Persist the stream's advertised schema (latest wins); fsynced. *)

val set_meta : t -> (string * string) list -> unit
(** Persist the stream's advertisement metadata — the [k=v] lines an
    ADVERTISE carried (registry binding [subject]/[version]/
    [fingerprint], replication [origin]/[epoch]; PROTOCOLS.md §14/§15)
    — latest list wins; fsynced. A restarted relay re-advertises the
    stream with exactly this metadata, so registry bindings and
    mirror origin tags survive without the original publisher. *)

val sync : t -> int
(** Fsync pending appends (no-op when clean) and return the new
    [durable]. This is what the relay's interval timer calls. *)

(** {2 Reading} *)

val iter_range_slices :
  t -> int -> int -> (int -> Omf_util.Slice.t -> unit) -> unit
(** [iter_range_slices t from upto f] calls [f offset frame] for every
    stored message in [[max from (oldest t), min upto (tail t))], in
    order. This is the chunked replay primitive — a reader chasing the
    tail pulls a bounded range per reactor writable callback instead of
    the whole suffix. Each frame is a slice into a shared segment read
    buffer: one ~256 KiB buffer allocation per window of records
    instead of one buffer per record. Buffers are fresh per window
    (never reused), so the slices stay valid after the call — the relay
    enqueues them on subscriber write queues as-is. A segment's sparse
    index (every 64th record's file position) is filled as ranges walk
    it, so later ranges start near [from] instead of at the segment
    start. Raises {!Store_error} if a record fails its length or CRC
    check. *)

val schema : t -> string option

val meta : t -> (string * string) list
(** The last persisted advertisement metadata ([] if none). *)

val descriptors : t -> Bytes.t list
(** Stored descriptor frames in first-use order. *)

(** {2 Introspection} *)

val tail : t -> int  (** next offset to be assigned *)

val durable : t -> int  (** offsets [< durable] are on disk *)

val oldest : t -> int  (** first offset still retained *)

val segments : t -> int
val bytes : t -> int  (** total segment-file bytes (excl. meta.log) *)

val truncated_bytes : t -> int
(** Bytes dropped by torn-tail truncation during [open_stream]. *)

val comp_raw_bytes : t -> int
(** Record-region bytes fed to segment compression since this handle
    opened (0 unless [config.compress]); the relay's
    [store.<stream>.comp_raw] gauge. *)

val comp_stored_bytes : t -> int
(** What those regions occupy on disk after sealing — compare with
    {!comp_raw_bytes} for the achieved ratio. *)

val apply_retention : t -> int
(** Enforce retention limits now; returns segments deleted. Also runs
    automatically at segment roll. *)

val streams : config -> string list
(** Stream names present under the store root (no handles opened). *)
