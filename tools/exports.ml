(** Export check: lists what a library interface ([lib/**/*.mli]) exports
    and no program uses. Four kinds of finding:
    - a [val] that no program calls from outside its own unit;
    - an optional argument of such a [val] that no program passes from
      outside the unit;
    - a constructor that nothing builds, its own unit included;
    - a record field that nothing reads, its own unit included.

    It reads the typed trees a build leaves behind ([.cmti] for the
    interfaces, [.cmt] for the implementations; [dune build @check] makes
    them all) and matches each use to the declaration it names through the
    declaration's unique id ([Shape.Uid.t]): a value use is a [Texp_ident],
    a passed argument an [Optional] label of a [Texp_apply] of that value,
    a build a [Texp_construct], a read a [Texp_field] or a [Tpat_record]. A
    use inside the declaring unit itself carries the implementation's id,
    not the interface's, so it never counts for a value or an argument.
    For a constructor or a field it does: the implementation's type is
    matched to the interface's by name.

    Programs are everything under lib, bin, bench, examples and tools, and
    the test kit ([test/testkit], which [bench/alloc] links). The test
    suites ([test/test_*.ml]) are not: an export only a test uses is a
    finding too, and is either deleted or listed with a reason.

    Usage: [exports.exe [--allow FILE] BUILD_ROOT]. Without [--allow] it
    prints every finding, and exits 1 if there is one. With it, each
    finding must be listed in FILE, one per line as [Name  kind: reason]
    ([Unit.*] covers a whole unit), where Name is [Unit.path.value],
    [Unit.path.value?label], [Unit.path.type.Constructor] or
    [Unit.path.type.field], and kind is one of [paper], [cli], [oracle] or
    [generated]; [#] starts a comment. The check fails on an unlisted
    finding, on an entry without a valid reason, and on an entry that no
    longer names a finding. *)

open Typedtree

(* what a program does with an export: calls a value, passes a value's
   optional argument, builds a constructor, reads a field *)
type use =
  | Call of Shape.Uid.t
  | Pass of Shape.Uid.t * string
  | Build of Shape.Uid.t
  | Read of Shape.Uid.t

type decl = {
  use : use;  (** the use that counts for it *)
  name : string;  (** the unit without its library prefix, as above *)
  unit_ : string;  (** the compilation unit, e.g. [Omf_pbio__Convert] *)
  loc : string;
}

let unit_of_file f =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

(* [Omf_pbio__Convert] is written [Convert] by every caller *)
let short_unit u =
  let n = String.length u in
  let rec go i =
    if i + 1 >= n then u
    else if u.[i] = '_' && u.[i + 1] = '_' then String.sub u (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then walk p acc
        else if Filename.check_suffix e ".cmt" || Filename.check_suffix e ".cmti"
        then p :: acc
        else acc)
      acc entries

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let line src (loc : Location.t) =
  Printf.sprintf "%s:%d" src loc.loc_start.pos_lnum

(* the constructors and fields a type declares, as (use, name, loc) *)
let members prefix (td : type_declaration) =
  let t = prefix ^ "." ^ td.typ_name.txt in
  let fields t =
    List.map (fun (ld : Types.label_declaration) ->
        Read ld.ld_uid, t ^ "." ^ Ident.name ld.ld_id, ld.ld_loc)
  in
  match td.typ_type.type_kind with
  | Type_variant (cds, _) ->
    List.concat_map
      (fun (cd : Types.constructor_declaration) ->
        let c = t ^ "." ^ Ident.name cd.cd_id in
        (Build cd.cd_uid, c, cd.cd_loc)
        :: (match cd.cd_args with
            | Cstr_record lds -> fields c lds
            | Cstr_tuple _ -> []))
      cds
  | Type_record (lds, _) -> fields t lds
  | _ -> []

let exn_member prefix (te : type_exception) =
  let ext = te.tyexn_constructor in
  Build ext.ext_type.ext_uid, prefix ^ "." ^ ext.ext_name.txt, ext.ext_loc

(* the optional labels of a value's declared type *)
let rec optionals (ct : core_type) =
  match ct.ctyp_desc with
  | Ttyp_arrow (Optional l, _, ret) -> (l, ct.ctyp_loc) :: optionals ret
  | Ttyp_arrow (_, _, ret) | Ttyp_poly (_, ret) -> optionals ret
  | _ -> []

let declarations ~unit_ ~src sg =
  let out = ref [] in
  let add (use, name, loc) =
    out := { use; name; unit_; loc = line src loc } :: !out
  in
  let rec items prefix sg =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
          let name = prefix ^ "." ^ vd.val_name.txt
          and uid = vd.val_val.val_uid in
          add (Call uid, name, vd.val_loc);
          List.iter (fun (l, loc) -> add (Pass (uid, l), name ^ "?" ^ l, loc))
            (optionals vd.val_desc)
        | Tsig_type (_, tds) ->
          List.iter (fun td -> List.iter add (members prefix td)) tds
        | Tsig_exception te -> add (exn_member prefix te)
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> items (prefix ^ "." ^ m) sg
          | _ -> ())
        | _ -> ())
      sg.sig_items
  in
  items (short_unit unit_) sg;
  !out

(* the constructors and fields an implementation declares, by name, so
   that a use in the declaring unit finds the interface's declaration *)
let impl_members ~unit_ str =
  let out = ref [] in
  let add (use, name, _) = out := (name, use) :: !out in
  let rec items prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_type (_, tds) ->
          List.iter (fun td -> List.iter add (members prefix td)) tds
        | Tstr_exception te -> add (exn_member prefix te)
        | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
          match mb_expr.mod_desc with
          | Tmod_structure str
          | Tmod_constraint ({ mod_desc = Tmod_structure str; _ }, _, _, _) ->
            items (prefix ^ "." ^ m) str
          | _ -> ())
        | _ -> ())
      str.str_items
  in
  items (short_unit unit_) str;
  !out

(* The optional labels an application passes. The type checker fills an
   omitted optional argument in with a [None] at a ghost location; only a
   real argument counts. Typedtree's shape for application arguments
   changes between compiler releases: this is the one place that reads it. *)
let passed_optionals (args : (Asttypes.arg_label * expression option) list) =
  List.filter_map
    (function
      | ( Asttypes.Optional _,
          Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []);
                 exp_loc = { loc_ghost = true; _ }; _ } ) -> None
      | Optional l, Some _ -> Some l
      | _ -> None)
    args

let uses str =
  let acc = ref [] in
  let add u = acc := u :: !acc in
  let expr sub e =
    (match e.exp_desc with
     | Texp_ident (_, _, vd) -> add (Call vd.val_uid)
     | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
       List.iter (fun l -> add (Pass (vd.val_uid, l))) (passed_optionals args)
     | Texp_construct (_, cd, _) -> add (Build cd.cstr_uid)
     | Texp_field (_, _, ld) -> add (Read ld.lbl_uid)
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let pat (type k) sub (p : k general_pattern) =
    (match p.pat_desc with
     | Tpat_record (fields, _) ->
       List.iter
         (fun (_, (ld : Types.label_description), _) -> add (Read ld.lbl_uid))
         fields
     | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.structure it str;
  !acc

let kinds = [ "paper"; "cli"; "oracle"; "generated" ]

(* [Name  kind: reason] lines; returns (name, line number, reason valid) *)
let read_allow file =
  let ic = open_in file in
  let rec loop n acc =
    match input_line ic with
    | exception End_of_file -> close_in ic; List.rev acc
    | line ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let line = String.trim line in
      if line = "" then loop (n + 1) acc
      else
        let name, rest =
          match String.index_opt line ' ' with
          | Some i ->
            String.sub line 0 i,
            String.trim (String.sub line i (String.length line - i))
          | None -> line, ""
        in
        let valid =
          match String.index_opt rest ':' with
          | Some i ->
            List.mem (String.sub rest 0 i) kinds
            && String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
               <> ""
          | None -> false
        in
        loop (n + 1) ((name, n, valid) :: acc)
  in
  loop 1 []

let () =
  let allow = ref None and root = ref "." in
  Arg.parse
    [ "--allow", Arg.String (fun f -> allow := Some f), "FILE allowlist" ]
    (fun r -> root := r)
    "exports.exe [--allow FILE] BUILD_ROOT";
  let in_dir d =
    List.map (fun f -> d, f) (walk (Filename.concat !root d) [])
  in
  let files =
    List.concat_map in_dir [ "lib"; "bin"; "bench"; "examples"; "tools"; "test" ]
  in
  let testkit = Filename.concat (Filename.concat !root "test") "testkit" in
  let decls = ref [] and found = ref [] and impl = ref [] in
  List.iter
    (fun (dir, file) ->
      let cmt = Cmt_format.read_cmt file in
      let src = Option.value cmt.Cmt_format.cmt_sourcefile ~default:file in
      let unit_ = unit_of_file file in
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Interface sg when dir = "lib" ->
        decls := declarations ~unit_ ~src sg @ !decls
      | Cmt_format.Implementation str ->
        if dir = "lib" then impl := impl_members ~unit_ str @ !impl;
        let test = dir = "test" && not (starts_with ~prefix:testkit file) in
        List.iter (fun u -> found := (u, unit_, test) :: !found) (uses str)
      | _ -> ())
    files;
  (* A unit's implementation never sees its own interface: a uid of its
     own unit names an implementation item, whose id may equal an
     unrelated interface item's (both are numbered from 0). A constructor
     or field the declaring unit uses counts for the interface's of the
     same name, and only for that. *)
  let by_name = Hashtbl.create 1024 and canon = Hashtbl.create 1024 in
  List.iter (fun d -> Hashtbl.replace by_name d.name d.use) !decls;
  List.iter
    (fun (name, u) ->
      Option.iter (Hashtbl.replace canon u) (Hashtbl.find_opt by_name name))
    !impl;
  let own unit_ = function
    | Shape.Uid.Item { comp_unit; _ } -> comp_unit = unit_
    | _ -> false
  in
  (* use -> the units that make it, from program code / from tests *)
  let program_uses = Hashtbl.create 4096 and test_uses = Hashtbl.create 4096 in
  List.iter
    (fun (u, unit_, test) ->
      let u =
        match u with
        | (Build uid | Read uid) when own unit_ uid -> Hashtbl.find_opt canon u
        | u -> Some u
      in
      Option.iter
        (fun u -> Hashtbl.add (if test then test_uses else program_uses) u unit_)
        u)
    !found;
  let used tbl d =
    match d.use with
    | Call _ | Pass _ ->
      List.exists (fun n -> n <> d.unit_) (Hashtbl.find_all tbl d.use)
    | Build _ | Read _ -> Hashtbl.mem tbl d.use
  in
  let findings =
    List.filter (fun d -> not (used program_uses d)) !decls
    |> List.sort (fun a b -> compare a.name b.name)
  in
  let describe d =
    Printf.sprintf "%s (%s) %s%s" d.name d.loc
      (match d.use with
       | Call _ -> "uncalled"
       | Pass _ -> "never passed"
       | Build _ -> "never built"
       | Read _ -> "never read")
      (if used test_uses d then "" else " [no caller at all]")
  in
  let count = Array.make 4 0 in
  List.iter
    (fun d ->
      let k =
        match d.use with Call _ -> 0 | Pass _ -> 1 | Build _ -> 2 | Read _ -> 3
      in
      count.(k) <- count.(k) + 1)
    !decls;
  let totals =
    Printf.sprintf "%d values, %d optional arguments, %d constructors, %d fields"
      count.(0) count.(1) count.(2) count.(3)
  in
  match !allow with
  | None ->
    List.iter (fun d -> print_endline (describe d)) findings;
    Printf.printf "%d findings among %s\n" (List.length findings) totals;
    if findings <> [] then exit 1
  | Some file ->
    let entries = read_allow file in
    let errors = ref 0 in
    let error fmt =
      incr errors;
      Printf.ksprintf prerr_endline fmt
    in
    (* [Unit.*] lists every finding of a unit *)
    let covers n d =
      n = d.name
      || String.length n > 2
         && String.sub n (String.length n - 2) 2 = ".*"
         && starts_with ~prefix:(String.sub n 0 (String.length n - 1)) d.name
    in
    List.iter
      (fun d ->
        if not (List.exists (fun (n, _, _) -> covers n d) entries) then
          error "unused export: %s — delete it, or list it in %s with a reason"
            (describe d) file)
      findings;
    List.iter
      (fun (n, line, valid) ->
        if not valid then
          error "%s:%d: %s needs a reason \"<%s>: ...\"" file line n
            (String.concat "|" kinds);
        if not (List.exists (covers n) findings) then
          error "%s:%d: %s is not an unused export (used now, or gone); \
                 drop the entry" file line n)
      entries;
    if !errors > 0 then exit 1;
    Printf.printf "exports: %s; %d allowlisted, no other export unused\n"
      totals (List.length entries)
