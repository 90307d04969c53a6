(** XML serialisation. *)

val element_to_string : Doc.element -> string
(** Compact single-line rendering with no inserted whitespace: parsing
    the result yields a tree equal (modulo comments) to the input. *)

val document_to_string : Doc.t -> string
(** The XML declaration, then the root as {!element_to_string}. *)
