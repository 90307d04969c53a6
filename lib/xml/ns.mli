(** XML namespace resolution (Namespaces in XML): environments map
    prefixes to URIs; [xmlns] / [xmlns:p] attributes extend them lexically
    as the tree is walked. *)

type env = (string * string) list
(** prefix → URI; [""] is the default-namespace prefix *)

val empty : env
(** Contains only the built-in [xml] prefix. *)

val extend : env -> Doc.element -> env
(** [env] extended with the declarations appearing on the element. *)

val resolve : env -> string -> (string * string) option
(** Expand a qualified element name to [(uri, local)]. Unbound prefixes
    yield [None]; unqualified names pick up the default namespace. *)

