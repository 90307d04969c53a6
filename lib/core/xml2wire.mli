(** xml2wire: run-time discovery of XML metadata for high-performance
    binary communication — the paper's contribution. Discovery, binding
    and marshaling stay separate and independently replaceable
    (section 3.3); marshaling is untouched PBIO. *)

open Omf_pbio
module Catalog = Catalog
module Mapper = Mapper
module Discovery = Discovery

exception No_such_format of string

val register_schema : ?source:string -> Catalog.t -> string -> Format.t list
(** The whole pipeline of Figure 2: parse XML Schema text, map every
    complexType (document order), register with PBIO via the catalog. *)

val publish_schema : Catalog.t -> string list -> string
(** Render the named catalog entries as an XML Schema document (the
    metaserver direction). Raises {!No_such_format}. *)

(** {1 Binding} *)

type binding
(** The "message format descriptor or token which the programmer can use
    during marshaling" (section 3.1). *)

val bind : Catalog.t -> string -> binding
val binding_format : binding -> Format.t

