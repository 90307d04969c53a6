(** Format-evolution compatibility analysis.

    PBIO's restricted evolution (section 6) lets formats change without
    recompiling every endpoint — but only some changes are safe. Given an
    old and a new declaration of the same logical format, this module
    reports exactly what changed and what each change means for running
    receivers:

    - {b added} fields: old receivers silently drop them (safe);
    - {b removed} fields: old receivers see zero/empty values (degraded);
    - compatible {b retyping} (integer width, float width): values
      convert, possibly with range loss (warning);
    - incompatible retyping or dimension changes (string vs number,
      scalar vs array, fixed vs dynamic): conversion plans refuse —
      running receivers cannot decode the new format's value for that
      field at all (breaking).

    Operators run [xml2wire diff old.xsd new.xsd] before publishing an
    upgraded metadata document. *)

open Omf_pbio

type severity =
  | Safe  (** old receivers are unaffected *)
  | Degraded  (** old receivers keep running but see default values *)
  | Warning  (** values flow but may lose range or precision *)
  | Breaking  (** same-named field can no longer be reconciled *)

let severity_rank = function
  | Safe -> 0
  | Degraded -> 1
  | Warning -> 2
  | Breaking -> 3

let severity_label = function
  | Safe -> "safe"
  | Degraded -> "degraded"
  | Warning -> "warning"
  | Breaking -> "BREAKING"

type change = {
  field : string;
  severity : severity;
  description : string;
}

type report = {
  format_name : string;
  changes : change list;  (** most severe first *)
  verdict : severity;  (** worst severity, [Safe] when nothing changed *)
}

let change field severity fmt =
  Printf.ksprintf (fun description -> { field; severity; description }) fmt

let dim_phrase = function
  | Ftype.Scalar -> "a scalar"
  | Ftype.Fixed n -> Printf.sprintf "a static array of %d" n
  | Ftype.Var c -> Printf.sprintf "a dynamic array counted by %S" c

(* classify an element-type change *)
let elem_change field (old_e : Ftype.elem) (new_e : Ftype.elem) : change list =
  if old_e = new_e then []
  else
    match (old_e, new_e) with
    | Ftype.Int_t _, Ftype.Int_t _ ->
      [ change field Warning "integer type changed (%s -> %s): width or \
                              signedness may differ on some machines"
          (Ftype.elem_to_string old_e) (Ftype.elem_to_string new_e) ]
    | Ftype.Float_t _, Ftype.Float_t _ ->
      [ change field Warning "floating type changed (%s -> %s): precision \
                              may be lost" (Ftype.elem_to_string old_e)
          (Ftype.elem_to_string new_e) ]
    | Ftype.Char_t, Ftype.Char_t | Ftype.String_t, Ftype.String_t -> []
    | Ftype.Named_t a, Ftype.Named_t b when String.equal a b -> []
    | Ftype.Named_t a, Ftype.Named_t b ->
      [ change field Warning "nested format renamed %S -> %S: fields match \
                              by name inside, verify the nested formats too"
          a b ]
    | _ ->
      [ change field Breaking "element kind changed (%s -> %s): conversion \
                               plans will refuse this field"
          (Ftype.elem_to_string old_e) (Ftype.elem_to_string new_e) ]

let dim_change field (old_d : Ftype.dim) (new_d : Ftype.dim) : change list =
  match (old_d, new_d) with
  | a, b when a = b -> []
  | Ftype.Fixed a, Ftype.Fixed b when b > a ->
    [ change field Degraded "static array grew %d -> %d: old receivers see \
                             the first %d elements" a b a ]
  | Ftype.Fixed a, Ftype.Fixed b ->
    [ change field Degraded "static array shrank %d -> %d: old receivers \
                             zero-fill the tail" a b ]
  | Ftype.Var a, Ftype.Var b ->
    [ change field Warning "control field renamed %S -> %S: a receiver \
                            fills its control from the sender's" a b ]
  | _ ->
    [ change field Breaking "dimension changed (%s -> %s): conversion plans \
                             will refuse this field" (dim_phrase old_d)
        (dim_phrase new_d) ]

(** [diff ~old_decl ~new_decl] analyses an upgrade of one format. *)
let diff ~(old_decl : Ftype.t) ~(new_decl : Ftype.t) : report =
  let find fields name =
    List.find_opt (fun (f : Ftype.field) -> String.equal f.Ftype.f_name name) fields
  in
  let removed =
    List.filter_map
      (fun (f : Ftype.field) ->
        match find new_decl.Ftype.fields f.Ftype.f_name with
        | Some _ -> None
        | None ->
          Some
            (change f.Ftype.f_name Degraded
               "field removed: new senders stop transmitting it, receivers \
                that still declare it see zero/empty values"))
      old_decl.Ftype.fields
  in
  let added =
    List.filter_map
      (fun (f : Ftype.field) ->
        match find old_decl.Ftype.fields f.Ftype.f_name with
        | Some _ -> None
        | None ->
          Some
            (change f.Ftype.f_name Safe
               "field added: old receivers drop it (restricted evolution)"))
      new_decl.Ftype.fields
  in
  let modified =
    List.concat_map
      (fun (old_f : Ftype.field) ->
        match find new_decl.Ftype.fields old_f.Ftype.f_name with
        | None -> []
        | Some new_f ->
          elem_change old_f.Ftype.f_name old_f.Ftype.f_elem new_f.Ftype.f_elem
          @ dim_change old_f.Ftype.f_name old_f.Ftype.f_dim new_f.Ftype.f_dim)
      old_decl.Ftype.fields
  in
  let changes =
    List.stable_sort
      (fun a b -> compare (severity_rank b.severity) (severity_rank a.severity))
      (removed @ added @ modified)
  in
  let verdict =
    List.fold_left
      (fun acc c ->
        if severity_rank c.severity > severity_rank acc then c.severity else acc)
      Safe changes
  in
  { format_name = new_decl.Ftype.name; changes; verdict }

(** [diff_schemas ~old_schema ~new_schema] analyses whole metadata
    documents: every format present in both is diffed; formats appearing
    or disappearing are reported as a whole. Returns reports in the new
    document's order (disappearing formats last). *)
let diff_schemas ~(old_schema : Omf_xschema.Schema.t)
    ~(new_schema : Omf_xschema.Schema.t) : report list =
  let old_simple = Omf_xschema.Schema.find_simple_type old_schema in
  let new_simple = Omf_xschema.Schema.find_simple_type new_schema in
  let decl_of simple ct = Mapper.decl_of_complex_type ~simple ct in
  let olds =
    List.map
      (fun ct -> (ct.Omf_xschema.Schema.ct_name, decl_of old_simple ct))
      old_schema.Omf_xschema.Schema.types
  in
  let reports =
    List.map
      (fun ct ->
        let name = ct.Omf_xschema.Schema.ct_name in
        let new_decl = decl_of new_simple ct in
        match List.assoc_opt name olds with
        | Some old_decl -> diff ~old_decl ~new_decl
        | None ->
          { format_name = name
          ; changes =
              [ change "(format)" Safe
                  "new format: no existing receivers to break" ]
          ; verdict = Safe })
      new_schema.Omf_xschema.Schema.types
  in
  let disappeared =
    List.filter_map
      (fun (name, _) ->
        if
          List.exists
            (fun ct -> String.equal ct.Omf_xschema.Schema.ct_name name)
            new_schema.Omf_xschema.Schema.types
        then None
        else
          Some
            { format_name = name
            ; changes =
                [ change "(format)" Breaking
                    "format removed from the metadata document: subscribers \
                     can no longer discover it" ]
            ; verdict = Breaking })
      olds
  in
  reports @ disappeared

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>%s: %s@," r.format_name (severity_label r.verdict);
  if r.changes = [] then Fmt.pf ppf "  (no changes)@,"
  else
    List.iter
      (fun c ->
        Fmt.pf ppf "  [%-8s] %-16s %s@," (severity_label c.severity) c.field
          c.description)
      r.changes;
  Fmt.pf ppf "@]"
