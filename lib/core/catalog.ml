(** The Catalog: xml2wire's record of every format it has discovered and
    registered (Figure 2). Wraps a PBIO {!Omf_pbio.Format.Registry} and
    remembers, for each format, the logical declaration it came from and
    where it was discovered — so formats can be re-resolved, republished
    as schema documents, or refreshed when their source changes. *)

open Omf_machine
open Omf_pbio

type entry = {
  decl : Ftype.t;
  format : Format.t;
  source : string;  (** provenance label, e.g. "file:flight.xsd" *)
}

type t = {
  registry : Format.Registry.t;
  entries : (string, entry) Hashtbl.t;
  mutable order : string list;  (** registration order, oldest first *)
}

let create (abi : Abi.t) : t =
  { registry = Format.Registry.create abi
  ; entries = Hashtbl.create 16
  ; order = [] }

let abi t = Format.Registry.abi t.registry
let registry t = t.registry

let find t name = Hashtbl.find_opt t.entries name

let find_format t name = Option.map (fun e -> e.format) (find t name)

(** [register t ~source decl] resolves [decl] against the catalog (nested
    types must already be present) and records it. Re-registration under
    the same name replaces the entry — that is how run-time format
    upgrades happen. *)
let register t ~(source : string) (decl : Ftype.t) : Format.t =
  let format = Format.Registry.register t.registry decl in
  if not (Hashtbl.mem t.entries decl.Ftype.name) then
    t.order <- t.order @ [ decl.Ftype.name ];
  Hashtbl.replace t.entries decl.Ftype.name { decl; format; source };
  format

(** Entries in registration order. *)
let entries t : entry list =
  List.filter_map (fun name -> Hashtbl.find_opt t.entries name) t.order

let size t = List.length t.order

let pp ppf t =
  Fmt.pf ppf "@[<v>Catalog (%s, %d formats):@," (abi t).Abi.name (size t);
  List.iter
    (fun e ->
      Fmt.pf ppf "  %-24s %4d bytes  id=%-3d  from %s@," e.decl.Ftype.name
        (Format.struct_size e.format) e.format.Format.id e.source)
    (entries t);
  Fmt.pf ppf "@]"
