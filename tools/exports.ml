(** Export check: lists every [val] of a library interface ([lib/**/*.mli])
    that no program calls from outside its own compilation unit.

    It reads the typed trees a build leaves behind ([.cmti] for the
    interfaces, [.cmt] for the implementations; [dune build @check] makes
    them all) and matches each use of a value ([Texp_ident]) to the
    declaration it names through the declaration's unique id ([val_uid]).
    A use inside the declaring unit itself carries the implementation's id,
    not the interface's, so it never counts.

    Programs are everything under lib, bin, bench, examples and tools, and
    the test kit ([test/testkit], which [bench/alloc] links). The test
    suites ([test/test_*.ml]) are not: an export only a test calls is a
    finding too, and is either deleted or listed with a reason.

    Usage: [exports.exe [--allow FILE] BUILD_ROOT]. Without [--allow] it
    prints every finding. With it, each finding must be listed in FILE,
    one per line as [Unit.path.name  kind: reason] ([Unit.*] covers a
    whole unit), where kind is one of [paper], [cli], [oracle] or
    [generated]; [#] starts a comment. The
    check fails on an unlisted finding, on an entry without a valid
    reason, and on an entry that no longer names a finding. *)

open Typedtree

type decl = {
  name : string;  (** [Unit.path.name], the unit without its library prefix *)
  unit_ : string;  (** the compilation unit, e.g. [Omf_pbio__Convert] *)
  loc : string;
  uid : Shape.Uid.t;
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

let declarations ~unit_ ~src sg =
  let out = ref [] in
  let rec items prefix sg =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
          let pos = vd.val_loc.Location.loc_start in
          out :=
            { name = prefix ^ "." ^ vd.val_name.txt;
              unit_;
              loc = Printf.sprintf "%s:%d" src pos.Lexing.pos_lnum;
              uid = vd.val_val.Types.val_uid }
            :: !out
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> items (prefix ^ "." ^ m) sg
          | _ -> ())
        | _ -> ())
      sg.sig_items
  in
  items (short_unit unit_) sg;
  !out

(* every value id [str] names, with the unit that names it *)
let uses str =
  let acc = ref [] in
  let expr sub e =
    (match e.exp_desc with
     | Texp_ident (_, _, vd) -> acc := vd.Types.val_uid :: !acc
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
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
  let files =
    List.concat_map
      (fun d -> walk (Filename.concat !root d) [])
      [ "lib"; "bin"; "bench"; "examples"; "tools"; "test" ]
  in
  let decls = ref [] in
  (* uid -> the units that use it from program code / from tests *)
  let program_uses = Hashtbl.create 4096 and test_uses = Hashtbl.create 4096 in
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      let src = Option.value cmt.Cmt_format.cmt_sourcefile ~default:file in
      let unit_ = unit_of_file file in
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Interface sg
        when starts_with ~prefix:"lib/" src && Filename.check_suffix src ".mli" ->
        decls := declarations ~unit_ ~src sg @ !decls
      | Cmt_format.Implementation str ->
        let tbl =
          if starts_with ~prefix:"test/" src
             && not (starts_with ~prefix:"test/testkit/" src)
          then test_uses
          else program_uses
        in
        List.iter (fun uid -> Hashtbl.add tbl uid unit_) (uses str)
      | _ -> ())
    files;
  let called_from tbl d =
    List.exists (fun u -> u <> d.unit_) (Hashtbl.find_all tbl d.uid)
  in
  let findings =
    List.filter (fun d -> not (called_from program_uses d)) !decls
    |> List.sort (fun a b -> compare a.name b.name)
  in
  let describe d =
    Printf.sprintf "%s (%s)%s" d.name d.loc
      (if called_from test_uses d then "" else " [no caller at all]")
  in
  match !allow with
  | None ->
    List.iter (fun d -> print_endline (describe d)) findings;
    Printf.printf "%d of %d exports have no caller outside their unit\n"
      (List.length findings) (List.length !decls)
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
          error "%s:%d: %s is not an uncalled export (called now, or gone); \
                 drop the entry" file line n)
      entries;
    if !errors > 0 then exit 1;
    Printf.printf "exports: %d exports, %d allowlisted, no other export uncalled\n"
      (List.length !decls) (List.length entries)
