(** Order statistics shared by the bench and the comparison tool. *)

let sorted (l : float list) : float array =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median (l : float list) : float =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** First and third quartiles by the "exclusive" method — the default
    of Python's [statistics.quantiles(values, n=4)], so spreads computed
    here match the ones a Python reader computes from the same runs.
    Needs at least two values. *)
let quartiles (l : float list) : float * float =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Qstats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 3)

(** Nearest-rank percentile [p] (0 < p <= 100) of an ascending array;
    0 when it is empty. *)
let rank (a : int array) (p : float) : int =
  let n = Array.length a in
  if n = 0 then 0
  else
    let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let sorted_ints (a : int array) : int array =
  let s = Array.copy a in
  Array.sort compare s;
  s
