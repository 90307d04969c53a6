type health =
  | Healthy
  | Degraded
  | Overloaded

let health_level = function Healthy -> 0 | Degraded -> 1 | Overloaded -> 2

let health_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Overloaded -> "overloaded"

type config = {
  budget : int;
  busy_retry_ms : int;
}

let config ?(busy_retry_ms = 250) ~budget () = { budget; busy_retry_ms }

type t = {
  cfg : config;
  deg_hi : int;
  deg_lo : int;
  over_hi : int;
  over_lo : int;
  mutable used : int;
  mutable health : health;
  mutable on_transition : health -> health -> unit;
  mutable drained_since_tick : int;
      (** bytes the total fell by (written, shed, closed) since the last
          {!note_tick} — the raw material of the drain-rate estimate *)
  mutable drain_rate : float;  (** EWMA of drained bytes, bytes/second *)
  mutable last_tick : float;  (** [nan] until the first tick *)
}

(* degraded at 70% of the budget (recover below 50%), overloaded at 90%
   (recover below 70%) *)
let create (cfg : config) : t =
  let pct p = cfg.budget * p / 100 in
  { cfg;
    deg_hi = pct 70;
    deg_lo = pct 50;
    over_hi = pct 90;
    over_lo = pct 70;
    used = 0;
    health = Healthy;
    on_transition = (fun _ _ -> ());
    drained_since_tick = 0;
    drain_rate = 0.0;
    last_tick = Float.nan }

let on_transition t f = t.on_transition <- f
let used t = t.used
let budget t = t.cfg.budget
let health t = t.health
let enabled t = t.cfg.budget > 0

(* The busy retry hint adapts to the observed drain rate: a client told
   to come back should find room when it does, so the hint estimates
   how long draining the current backlog will take at the recent drain
   rate. The configured [busy_retry_ms] stays meaningful as the floor
   (never retry sooner) and, at 10x, the ceiling (never park a client
   for long on a stale estimate). With no rate observed yet the static
   flag value is the hint, as before. *)
let retry_ceiling = 10

let busy_retry_ms t =
  let floor_ms = t.cfg.busy_retry_ms in
  if t.drain_rate <= 0.0 || t.used <= 0 then floor_ms
  else
    let est_ms = float_of_int t.used /. t.drain_rate *. 1000.0 in
    let cap = float_of_int (retry_ceiling * floor_ms) in
    int_of_float (Float.max (float_of_int floor_ms) (Float.min cap est_ms))

let note_tick t ~now =
  if Float.is_nan t.last_tick then begin
    t.last_tick <- now;
    t.drained_since_tick <- 0
  end
  else begin
    let dt = now -. t.last_tick in
    if dt > 0.01 then begin
      let rate = float_of_int t.drained_since_tick /. dt in
      t.drain_rate <-
        (if t.drain_rate <= 0.0 then rate
         else (0.5 *. t.drain_rate) +. (0.5 *. rate));
      t.drained_since_tick <- 0;
      t.last_tick <- now
    end
  end

let drain_rate t = t.drain_rate

(* Hysteresis: escalate when usage crosses a high watermark, recover
   only once it falls below the corresponding (lower) low watermark, so
   usage oscillating around one threshold cannot flap the state. *)
let reeval t =
  if enabled t then begin
    let u = t.used in
    let next =
      match t.health with
      | Healthy ->
        if u >= t.over_hi then Overloaded
        else if u >= t.deg_hi then Degraded
        else Healthy
      | Degraded ->
        if u >= t.over_hi then Overloaded
        else if u < t.deg_lo then Healthy
        else Degraded
      | Overloaded ->
        if u >= t.over_lo then Overloaded
        else if u < t.deg_lo then Healthy
        else Degraded
    in
    if next <> t.health then begin
      let prev = t.health in
      t.health <- next;
      t.on_transition prev next
    end
  end

let update t used =
  if used < t.used then
    t.drained_since_tick <- t.drained_since_tick + (t.used - used);
  t.used <- used;
  reeval t
