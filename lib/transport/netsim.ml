(** Deterministic simulated network link.

    The end-to-end latency experiment (E1) needs a *controlled* link: real
    loopback TCP jitter would drown the effects being measured. A netsim
    link charges each message a configurable cost on a virtual clock:

      arrival = max(now, link_free) + propagation
      where the link is busy for per_message + bytes/bandwidth

    Virtual time is in microseconds. The clock is shared by both ends of
    a link. At zero cost ({!loopback}) it is the plain in-process link
    tests and examples use. *)

type clock = { mutable now_us : float }

let clock () = { now_us = 0.0 }
let now (c : clock) = c.now_us
let advance_to (c : clock) t = if t > c.now_us then c.now_us <- t

type profile = {
  propagation_us : float;  (** one-way latency *)
  per_message_us : float;  (** fixed per-message processing cost *)
  bytes_per_us : float;  (** bandwidth; e.g. 100.0 = 100 MB/s *)
}

(** A 100 Mbit/s LAN with 100 us one-way latency — paper-era hardware. *)
let lan_1999 =
  { propagation_us = 100.0; per_message_us = 5.0; bytes_per_us = 12.5 }

(** No cost at all: virtual time never advances. *)
let loopback =
  { propagation_us = 0.0; per_message_us = 0.0; bytes_per_us = infinity }

type stats = {
  mutable messages : int;
  mutable bytes : int;
}

type side = {
  clock : clock;
  profile : profile;
  inbox : (float * bytes) Queue.t;  (** (arrival time, message) *)
  outbox : (float * bytes) Queue.t;
  mutable out_free_at : float ref;  (** when our sending half is idle *)
  stats : stats;
  mutable closed : bool;  (** {!Link.close} ran on this end *)
}

(** [transmit_time profile len] is the serialisation cost of one message —
    exposed for analytical checks in tests. *)
let transmit_time (p : profile) (len : int) : float =
  p.per_message_us +. (float_of_int len /. p.bytes_per_us)

let link_of_side (s : side) : Link.t =
  { Link.send =
      (fun msg ->
        if s.closed then raise Link.Closed;
        let start = Float.max s.clock.now_us !(s.out_free_at) in
        let busy_until = start +. transmit_time s.profile (Bytes.length msg) in
        s.out_free_at := busy_until;
        let arrival = busy_until +. s.profile.propagation_us in
        s.stats.messages <- s.stats.messages + 1;
        s.stats.bytes <- s.stats.bytes + Bytes.length msg;
        (* the sender's clock advances past its own serialisation work *)
        advance_to s.clock busy_until;
        Queue.push (arrival, Bytes.copy msg) s.outbox)
  ; recv =
      (fun () ->
        if Queue.is_empty s.inbox then None
        else begin
          let arrival, msg = Queue.pop s.inbox in
          (* receiving blocks (virtually) until the message has arrived *)
          advance_to s.clock arrival;
          Some msg
        end)
  ; close = (fun () -> s.closed <- true) }

(** [pair profile] creates a duplex link whose two ends share a fresh
    virtual clock. Returns [(end_a, end_b, clock, stats_a_to_b)]. *)
let pair (profile : profile) : Link.t * Link.t * clock * stats =
  let c = clock () in
  let q1 = Queue.create () and q2 = Queue.create () in
  let free_a = ref 0.0 and free_b = ref 0.0 in
  let stats_ab = { messages = 0; bytes = 0 } in
  let stats_ba = { messages = 0; bytes = 0 } in
  let a =
    { clock = c; profile; inbox = q1; outbox = q2; out_free_at = free_a
    ; stats = stats_ab; closed = false }
  in
  let b =
    { clock = c; profile; inbox = q2; outbox = q1; out_free_at = free_b
    ; stats = stats_ba; closed = false }
  in
  (link_of_side a, link_of_side b, c, stats_ab)
