(** Small deterministic PRNG (xorshift64-star) used by workload generators so
    that benchmarks and simulations are reproducible without touching the
    global [Random] state. *)

type t = { mutable state : int64 }

let create ?(seed = 0x9E3779B97F4A7C15L) () =
  let seed = if Int64.equal seed 0L then 1L else seed in
  { state = seed }

let next_int64 t =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  Int64.mul x 0x2545F4914F6CDD1DL

(** [int t bound] is uniform-ish in [0, bound). Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0


