(** Deterministic simulated network link for controlled latency
    experiments: each message is charged
    [per_message + bytes/bandwidth] serialisation plus [propagation] on a
    shared virtual clock; back-to-back messages queue behind each other
    on the sending half. Time unit: microseconds. [recv] on an empty
    link returns [None]; [send] after {!Link.close} on the same end
    raises {!Link.Closed}; sent buffers are copied. *)

type clock

val now : clock -> float

type profile = {
  propagation_us : float;  (** one-way latency *)
  per_message_us : float;  (** fixed per-message processing cost *)
  bytes_per_us : float;  (** bandwidth, e.g. 12.5 = 100 Mbit/s *)
}

val lan_1999 : profile
(** 100 Mbit/s LAN, 100 us one-way — paper-era hardware. *)

val loopback : profile
(** Zero cost: the plain in-process link (tests, examples). *)

type stats = {
  mutable messages : int;
  mutable bytes : int;
}

val transmit_time : profile -> int -> float
(** Serialisation cost of one message of the given length. *)

val pair : profile -> Link.t * Link.t * clock * stats
(** A duplex link whose ends share a fresh virtual clock; the stats
    record counts a→b traffic. *)
