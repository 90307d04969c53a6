(** The Catalog: xml2wire's record of every format it has discovered and
    registered (Figure 2), with provenance. Wraps a PBIO registry. *)

open Omf_machine
open Omf_pbio

type entry = {
  decl : Ftype.t;
  format : Format.t;
  source : string;  (** provenance label, e.g. "file:flight.xsd" *)
}

type t

val create : Abi.t -> t
val registry : t -> Format.Registry.t

val find : t -> string -> entry option
val find_format : t -> string -> Format.t option

val register : t -> source:string -> Ftype.t -> Format.t
(** Resolve against the catalog (nested types must already be present)
    and record. Re-registration under the same name replaces the entry —
    how run-time format upgrades happen. *)

val entries : t -> entry list
(** In registration order. *)

val pp : Stdlib.Format.formatter -> t -> unit
