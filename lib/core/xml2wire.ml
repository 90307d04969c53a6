(** xml2wire: run-time discovery of XML metadata for high-performance
    binary communication — the paper's contribution, as a library facade.

    The three steps stay separate and independently replaceable
    (section 3.3, orthogonality):
    - {b discovery}: {!Discovery} fallback chains over files, fetchers
      (HTTP), inline text and compiled-in declarations;
    - {b binding}: {!bind} associates program values with a discovered
      format, yielding a descriptor for the marshaling layer;
    - {b marshaling}: delegated untouched to PBIO ({!Omf_pbio.Pbio}) —
      "the introduction of XML metadata … doesn't add any additional
      overhead to data transport". *)

open Omf_pbio
module Catalog = Catalog
module Mapper = Mapper
module Discovery = Discovery

exception No_such_format of string

(** [register_schema catalog text] parses XML Schema [text] and registers
    every complexType it defines, in document order. This is the whole
    xml2wire pipeline of Figure 2: parse -> Catalog -> PBIO metadata. *)
let register_schema ?(source = "inline") (catalog : Catalog.t)
    (text : string) : Format.t list =
  (Discovery.register_document catalog ~label:source text).Discovery.formats

(** [publish_schema catalog names] renders the named catalog entries (and
    nothing else) as an XML Schema document — the inverse direction, used
    by metadata servers. *)
let publish_schema (catalog : Catalog.t) (names : string list) : string =
  let decls =
    List.map
      (fun name ->
        match Catalog.find catalog name with
        | Some e -> e.Catalog.decl
        | None -> raise (No_such_format name))
      names
  in
  Omf_xschema.Schema_write.to_string (Mapper.schema_of_decls decls)

(* ------------------------------------------------------------------ *)
(* Binding                                                              *)
(* ------------------------------------------------------------------ *)

(** A binding: the "message format descriptor or token which the
    programmer can use during marshaling" (section 3.1). *)
type binding = Format.t

let bind (catalog : Catalog.t) (name : string) : binding =
  match Catalog.find_format catalog name with
  | Some format -> format
  | None -> raise (No_such_format name)

let binding_format (b : binding) : Format.t = b
