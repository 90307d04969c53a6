(** [poll(2)] over an array of descriptors kept outside the OCaml heap.
    Unlike [Unix.select], it takes descriptors of any number: [select]
    raises [EINVAL] for one at or above [FD_SETSIZE] (1024). An entry
    keeps its descriptor and interest until it is set again, so a loop
    whose interest does not change hands the kernel the same array
    every round. *)

type t

val readable : int
val writable : int

val invalid : int
(** Bits of an entry's interest ({!readable}, {!writable}) and of what
    {!ready} reports; {!invalid} is a descriptor that is not open. *)

val create : int -> t
(** An array of [n] entries, each to be {!set} before it is waited on. *)

val set : t -> int -> Unix.file_descr -> int -> unit
(** [set t i fd interest] points entry [i] at [fd], waiting for the
    {!readable} and {!writable} bits of [interest]. *)

val wait : t -> int -> timeout_ms:int -> int
(** Wait on the first [n] entries until one is ready or [timeout_ms]
    passes, with the runtime lock released; the number of ready
    entries. Raises [Unix.Unix_error] ([EINTR] when a signal cut the
    wait short). *)

val ready : t -> int -> int
(** What the last {!wait} found on entry [i]: {!readable} and
    {!writable} bits, both set for an error or a hang-up, or
    {!invalid}. *)
