(** C code generation: struct typedefs (Figure 4) and compiled-in
    IOField metadata rows (Figure 5) from format declarations — part of
    the paper's stated future work, and the cheap way to ship the
    fault-tolerant compiled-in discovery fallback. *)

open Omf_pbio

val header : Ftype.t list -> string
(** A complete self-contained header; declarations must be in dependency
    order (as a Catalog yields them). *)
