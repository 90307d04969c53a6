(** The export check's self-test: one finding of each kind, each beside
    a used counterpart. tools/exports_fixture/bin uses them from outside
    this unit; [Built] is built only here, which counts too. *)

type shape =
  | Built
  | Never_built  (** matched, never built *)

type point = {
  read : int;
  never_read : int;  (** set, never read *)
}

val used : unit -> shape

val uncalled : unit -> unit
(** no program calls it *)

val f : ?passed:int -> ?unpassed:int -> unit -> int
(** no program passes [?unpassed] *)
