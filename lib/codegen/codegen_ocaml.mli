(** OCaml code generation: per format, a compiled-in declaration
    ([<name>_decl]), a labelled constructor ([make_<name>]; dynamic-array
    control fields omitted — the binding layer fills them), and typed
    accessors ([<name>_<field>]). The generated module depends only on
    [Omf_pbio]. *)

open Omf_pbio

val ident : string -> string
(** Lowercase, keyword-safe OCaml identifier. *)

val module_text : Ftype.t list -> string
(** A complete module body for a set of declarations. *)

val interface_text : Ftype.t list -> string
(** The matching .mli: typed signatures for everything [module_text]
    emits. *)
