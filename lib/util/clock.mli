(** The one monotonic clock: timers, deadlines, rate limits, cache
    time-to-live and trace spans all read it. Wall time is read only
    for values that are persisted or used as seeds. *)

val now_us : unit -> int
(** [CLOCK_MONOTONIC] in microseconds; allocation-free. It never steps
    with the system clock. Only differences are meaningful, and only
    within one process. *)
