(** XML document trees and accessors. Tag and attribute names are raw
    qualified names ("xsd:element"); namespace resolution is {!Ns}. *)

type node =
  | Element of element
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of string * string  (** target, content *)

and element = {
  tag : string;
  attrs : (string * string) list;  (** document order, names unique *)
  children : node list;
}

type t = {
  decl : (string * string) list;
      (** pseudo-attributes of the [<?xml …?>] declaration, if present *)
  root : element;
}

val element :
  ?attrs:(string * string) list -> ?children:node list -> string -> element

val attr : element -> string -> string option

val child_elements : element -> element list
(** Child elements, in document order. *)

val find_children : element -> string -> element list

val text : element -> string
(** Concatenated character data (text + CDATA children, non-recursive). *)

val deep_text : element -> string
(** All descendant character data. *)

val split_qname : string -> string * string
(** [(prefix, local)]; prefix is [""] when unqualified. *)

val local_name : string -> string

val equal_modulo_comments : element -> element -> bool
(** Structural equality ignoring comments and processing instructions —
    the right notion for round-trip tests. *)
