(** Mapping XML Schema complexTypes onto PBIO declarations (the heart of
    xml2wire, section 4.2.2) and back. Field sizes are deliberately
    absent from the XML; they come from the registering machine's ABI.

    Array handling follows the paper: numeric [maxOccurs] is a static
    bound; [maxOccurs="*"] synthesises a [<name>_count] C control field
    right after the array (compare Figures 8 and 9); a string-valued
    [maxOccurs] names an explicit integer element. *)

open Omf_pbio
open Omf_xschema

exception Mapping_error of string

val decl_of_complex_type :
  ?simple:(string -> Schema.simple_type option) -> Schema.complex_type ->
  Ftype.t
(** [simple] resolves simpleType names (usually
    [Schema.find_simple_type schema]); a simpleType restriction is
    physically its base builtin. Raises {!Mapping_error} on constructs
    that cannot be realised as C structures (self-nesting,
    missing/non-integer control elements, control-name collisions). *)

val schema_of_decls : Ftype.t list -> Schema.t
(** The inverse, as a whole schema document: synthesised [*_count]
    controls fold back into [maxOccurs="*"]; explicit controls become
    string-valued [maxOccurs]. *)
