(** Named monotonic counters: the cheap observability substrate used by
    long-running servers (the relay daemon's STATS reply, the load
    generator's report, the `/metrics` endpoint). Thread-safe: each
    table carries a mutex so relay shards running on separate domains
    can be snapshotted ({!dump}, {!merged}) from any thread while their
    loops keep counting. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** [incr t name] adds 1 to [name], creating it at 0. Allocates nothing
    once [name] exists, like {!add}, {!set} and {!observe}. *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to [name], creating it at 0. *)

val set : t -> string -> int -> unit
(** [set t name v] overwrites [name] with [v] — the gauge primitive
    (queue depths, store segment/byte totals) next to the monotonic
    {!incr}. *)

val observe : t -> ?bounds:int list -> string -> int -> unit
(** [observe t name v] records one sample in the histogram [name]
    (e.g. a latency in microseconds). Histograms are stored as plain
    counters under the reserved ["hist."] group — cumulative buckets
    ["hist.<name>.le_<bound>"] (zero-padded), ["hist.<name>.le_inf"],
    ["hist.<name>.count"] and ["hist.<name>.sum"] — so they flow
    through {!dump}, {!to_text} and {!merged} unchanged, and summing
    per-shard snapshots merges histograms bucket-wise. [bounds] are the
    inclusive upper bounds, ascending ({!default_bounds} when omitted);
    every call site for a given [name] must use the same bounds. *)

val default_bounds : int list
(** 50 .. 1_000_000 — microsecond-scale latency buckets. *)

val get : t -> string -> int
(** 0 for counters never touched. *)

val dump : t -> (string * int) list
(** All counters, sorted by name. *)

val merged : t list -> (string * int) list
(** Sum same-named counters across tables (per-shard totals into one
    view), sorted by name. *)

val to_text : (string * int) list -> string
(** One ["name value\n"] line per counter of a snapshot ({!dump},
    {!merged}), in its order — the STATS wire body. *)

val of_text : string -> (string * int) list
(** Parse {!to_text} output (unparseable lines are skipped). *)

type staleness
(** Scrape-to-scrape memory for {!prometheus} staleness marks. *)

val staleness : unit -> staleness
(** A fresh tracker; share one across every component rendered behind
    the same scrape endpoint. *)

val prometheus :
  ?staleness:staleness -> component:string -> (string * int) list -> string
(** Render a snapshot in Prometheus text exposition format (what
    [Http.metrics_handler] serves and [Http.push] POSTs), one
    [omf_<component>_<name> <value>] line per counter; characters
    outside [[a-zA-Z0-9_]] in [component] or names become ['_'].

    Per-subject gauges named [<group>.<subject>.<metric>] (the relay's
    ["stream.flights.queue_depth"], the mirror's
    ["mirror.flights.lag_frames"]) render with the subject as a label —
    [omf_<component>_<group>_<metric>{stream="<subject>"}] — so one
    metric aggregates across streams. The subject is the text between
    the first and last dot and may itself contain dots; quotes,
    backslashes and newlines in it are escaped.

    Histogram counters from {!observe} ([hist.<name>.*]) render in the
    Prometheus histogram convention:
    [omf_<component>_<name>_bucket{le="<bound>"}] (with [le="+Inf"] for
    the overflow bucket), [omf_<component>_<name>_sum] and
    [omf_<component>_<name>_count].

    With [?staleness], each render also compares every series against
    the tracker's previous scrape and appends a
    [# staleness: <component>: K of N series unchanged since previous
    scrape] annotation plus a [omf_<component>_stale K] marker series —
    a scrape-time signal that a component has gone quiet (or that a
    gauge source is wedged) without any server-side timers. Series
    first seen this scrape count as fresh. *)
