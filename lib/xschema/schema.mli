(** XML Schema subset: the metadata definition language of the paper
    (sections 4.1.1 and Appendix A). Accepts both the 1999 draft
    spellings ([xsd:unsigned-long], [maxOccurs="*"]) and the final 2001
    recommendation ([xsd:unsignedLong], [maxOccurs="unbounded"],
    [xsd:sequence] wrappers). The AST is independent of the
    communication layers; {!Omf_xml2wire.Mapper} maps it onto PBIO. *)

val schema_namespaces : string list

type max_occurs =
  | Bounded of int  (** numeric: a static array bound *)
  | Unbounded  (** "*" or "unbounded": dynamically sized *)
  | Counted_by of string
      (** a sibling integer element gives the run-time count *)

type element = {
  el_name : string;
  el_type : type_ref;
  min_occurs : int;
  max_occurs : max_occurs option;  (** [None] = plain scalar element *)
}

and type_ref =
  | Builtin of builtin  (** a type from the XML Schema namespace *)
  | Defined of string  (** a named complexType from this document *)

and builtin =
  | B_string
  | B_boolean
  | B_byte
  | B_unsigned_byte
  | B_short
  | B_unsigned_short
  | B_int  (** xsd:int and xsd:integer *)
  | B_unsigned_int
  | B_long
  | B_unsigned_long
  | B_float
  | B_double

type complex_type = {
  ct_name : string;
  ct_elements : element list;
  ct_documentation : string option;
}

(** A named simple type derived by restriction of a builtin (the paper's
    footnote 1): usable wherever a builtin is, with extra lexical
    constraints checked by validation. *)
type simple_type = {
  st_name : string;
  st_base : builtin;
  st_enumeration : string list;  (** empty = unconstrained *)
  st_min_inclusive : float option;
  st_max_inclusive : float option;
}

type t = {
  target_namespace : string option;
  documentation : string option;
  types : complex_type list;  (** in document order *)
  simple_types : simple_type list;
}

val find_type : t -> string -> complex_type option
val find_simple_type : t -> string -> simple_type option
val builtin_name : builtin -> string

exception Schema_error of string

val canonical : t -> string
(** A deterministic rendering of the schema's structural content —
    names, types, occurrence bounds, simple-type facets — with
    documentation, namespace prose and source formatting excluded.
    Registries fingerprint this (SHA-256) for content addressing: two
    documents that differ only in whitespace or annotations
    canonicalize identically. *)

val of_string : string -> t
(** Raises {!Schema_error} (wrapping XML parse errors). *)
