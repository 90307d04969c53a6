(** Per-connection ingress rate limiting for event-loop servers.

    A token bucket refills at [rate] tokens/second up to a cap of
    [burst]. Because a reactor only learns about a frame after it has
    already been read and decoded, {!take} is debt-tolerant: the
    balance may go negative, and {!delay} reports how long the caller
    should stop reading from that connection before the balance is
    non-negative again. All operations take an explicit [~now]
    (seconds on a monotonic base; servers pass [Reactor.now], which
    reads {!Clock}) so behaviour is deterministic under test. Not thread-safe: a
    bucket belongs to the loop that owns its connection. *)

type t

val create : rate:float -> burst:float -> now:float -> t
(** [rate <= 0] means unlimited; [burst <= 0] is clamped to 1. The
    bucket starts full. *)

val take : t -> now:float -> float -> unit
(** Consume [n] tokens (the balance may go negative — the frames were
    already read off the wire). *)

val ready : t -> now:float -> bool
(** True when the balance is non-negative, i.e. reading may continue. *)

val delay : t -> now:float -> float
(** Seconds until the balance refills to zero; [0.] if already ready. *)

val tokens : t -> now:float -> float
(** Current balance after refill (informational / tests). *)
