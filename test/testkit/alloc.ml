(** Allocation probe: bytes a function allocates per call, minor and
    major heap together, on the calling domain. *)

(* words this domain has allocated so far. On OCaml 5 [Gc.counters] only
   advances at minor collections ([Gc.minor_words] alone misses blocks
   allocated straight on the major heap), so each reading is taken right
   after one *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(** [bytes_per_call f] runs [f] once to warm up (plan compilation, arena
    growth), then [iters] times, and returns the bytes allocated per
    call. *)
let bytes_per_call ?(iters = 200) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  let w1 = words () in
  (w1 -. w0) *. float_of_int (Sys.word_size / 8) /. float_of_int iters
