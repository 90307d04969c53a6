(** Per-shard resource governor: one global byte budget covering every
    queued outbound frame on the shard (subscriber write queues,
    in-flight replay chunks, mirror-link buffers, control replies).

    The governor keeps no count of its own: the relay installs {!update}
    as its shard reactor's queued-bytes hook, so [used] is always the
    loop's {!Omf_reactor.Reactor.queued_bytes}, which moves as frames
    are queued, written, shed, or die with their connection. Crossing
    watermarks — fixed fractions of the budget — drives a three-state
    health machine with hysteresis:

    {v
      Healthy    --used >= 70%-->  Degraded
      Degraded   --used >= 90%-->  Overloaded
      Degraded   --used <  50%-->  Healthy
      Overloaded --used <  70%-->  Degraded (or Healthy if already < 50%)
    v}

    The budget is a control target, not a hard cap: admission control
    sheds load at the watermarks, but frames already read off the wire
    are still queued, so [used] may overshoot the budget by a bounded
    amount. Not thread-safe — a governor belongs to one shard loop. *)

type health =
  | Healthy
  | Degraded    (** replays throttled, slow consumers evicted eagerly *)
  | Overloaded  (** PUBLISH and [from=] replays refused with [busy] *)

val health_level : health -> int
(** 0 / 1 / 2 — the STATS / Prometheus gauge encoding. *)

val health_name : health -> string

type config = private {
  budget : int;  (** total byte budget; [<= 0] disables the governor *)
  busy_retry_ms : int;  (** retry hint carried in [busy] replies *)
}

val config : ?busy_retry_ms:int -> budget:int -> unit -> config
(** [busy_retry_ms] defaults to 250. *)

type t

val create : config -> t

val on_transition : t -> (health -> health -> unit) -> unit
(** Install the transition callback [(fun old_health new_health -> …)];
    called synchronously from {!update}. *)

val update : t -> int -> unit
(** [update t used] takes the shard's current queued-bytes total,
    re-evaluates health (which may fire the callback), and counts a
    fall in the total as drained bytes for {!note_tick}. *)

val used : t -> int
val budget : t -> int
val health : t -> health
val enabled : t -> bool
(** False for [budget <= 0]: usage is still tracked but health is
    pinned to [Healthy] and no callbacks fire. *)

val busy_retry_ms : t -> int
(** The retry hint carried in [busy] replies, in milliseconds. Adaptive:
    once {!note_tick} has observed a drain rate, the hint estimates how
    long draining the current backlog will take at that rate —
    [used / drain_rate] — clamped to
    [[config.busy_retry_ms, 10 * config.busy_retry_ms]]. Before any rate
    is observed (or with an empty backlog) it is the configured
    [busy_retry_ms], unchanged. *)

val note_tick : t -> now:float -> unit
(** Fold the bytes drained since the previous tick into the drain-rate
    estimate (EWMA, half-weight per tick). Call periodically from the
    owning shard loop (the relay calls it from its 1 s gauge tick);
    ticks closer than 10 ms apart are ignored. *)

val drain_rate : t -> float
(** Current drain-rate estimate in bytes/second; [0.] until the first
    complete tick interval. *)
