(** Small deterministic PRNG (xorshift64-star) used by workload generators
    so that benchmarks and simulations are reproducible without touching
    the global [Random] state. *)

type t

val create : ?seed:int64 -> unit -> t
(** A zero seed is replaced by a fixed non-zero one (xorshift must not
    start at 0). *)

val int : t -> int -> int
(** [int t bound] is uniform-ish in [0, bound). Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)
