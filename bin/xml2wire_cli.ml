(** The xml2wire command-line tool.

    - [xml2wire inspect flight.xsd --abi sparc-32] parses a metadata
      document and dumps the resulting Catalog, PBIO IOField rows
      (compare Figures 5/8/11) and compiler-style struct layouts.
    - [xml2wire sizes flight.xsd] shows how the same formats lay out on
      every known ABI — the heterogeneity NDR bridges.
    - [xml2wire validate flight.xsd message.xml --type T] schema-checks a
      live message.
    - [xml2wire classify flight.xsd message.xml] reports which type the
      message most closely fits (section 4.1.1).
    - [xml2wire codegen flight.xsd --lang c] emits language-level message
      representations (structs + compiled-in IOField metadata).
    - [xml2wire journal flight.xsd trace.omfj] replays a binary NDR
      journal. *)

open Cmdliner
open Omf_machine
module X2W = Omf_xml2wire.Xml2wire
module Catalog = Omf_xml2wire.Catalog
module Schema = Omf_xschema.Schema
module Validate = Omf_xschema.Validate
open Omf_pbio

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let abi_conv : Abi.t Arg.conv =
  let parse s =
    match Abi.find_by_name s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown ABI %S (known: %s)" s
             (String.concat ", " (List.map (fun a -> a.Abi.name) Abi.all))))
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf a.Abi.name)

let schema_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCHEMA.xsd" ~doc:"XML Schema metadata document.")

let abi_arg =
  Arg.(
    value
    & opt abi_conv Abi.native
    & info [ "abi" ] ~docv:"ABI"
        ~doc:
          (Printf.sprintf "Target machine ABI (%s)."
             (String.concat ", " (List.map (fun a -> a.Abi.name) Abi.all))))

let load_catalog abi path =
  let catalog = Catalog.create abi in
  let formats = X2W.register_schema ~source:("file:" ^ path) catalog (read_file path) in
  (catalog, formats)

(* ---- inspect ---- *)

let inspect path abi =
  let catalog, formats = load_catalog abi path in
  Fmt.pr "%a@.@." Catalog.pp catalog;
  List.iter
    (fun fmt ->
      Fmt.pr "%a@.@." Format.pp_io_fields fmt;
      Fmt.pr "@[<v>%a@]@." Omf_machine.Layout.pp fmt.Format.layout)
    formats;
  `Ok ()

let inspect_cmd =
  let doc = "parse a metadata document; dump Catalog, IOFields and layouts" in
  Cmd.v
    (Cmd.info "inspect" ~doc)
    Term.(ret (const inspect $ schema_file $ abi_arg))

(* ---- sizes ---- *)

let sizes path =
  let schema = Schema.of_string (read_file path) in
  let names = List.map (fun ct -> ct.Schema.ct_name) schema.Schema.types in
  Fmt.pr "%-24s" "format";
  List.iter (fun a -> Fmt.pr "  %10s" a.Abi.name) Abi.all;
  Fmt.pr "@.";
  List.iter
    (fun name ->
      Fmt.pr "%-24s" name;
      List.iter
        (fun abi ->
          let catalog, _ = load_catalog abi path in
          match Catalog.find_format catalog name with
          | Some fmt -> Fmt.pr "  %10d" (Format.struct_size fmt)
          | None -> Fmt.pr "  %10s" "-")
        Abi.all;
      Fmt.pr "@.")
    names;
  `Ok ()

let sizes_cmd =
  let doc = "sizeof() of every format on every known ABI" in
  Cmd.v (Cmd.info "sizes" ~doc) Term.(ret (const sizes $ schema_file))

(* ---- validate ---- *)

let instance_file =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"MESSAGE.xml" ~doc:"Instance document to check.")

let type_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "type"; "t" ] ~docv:"NAME" ~doc:"complexType to validate against.")

let validate path instance type_name =
  let schema = Schema.of_string (read_file path) in
  let el = (Omf_xml.Parse.document (read_file instance)).Omf_xml.Doc.root in
  match Validate.validate schema ~type_name el with
  | [] ->
    Fmt.pr "%s: valid %s@." instance type_name;
    `Ok ()
  | problems ->
    List.iter (fun p -> Fmt.pr "%a@." Validate.pp_problem p) problems;
    `Error (false, Printf.sprintf "%d problem(s)" (List.length problems))

let validate_cmd =
  let doc = "schema-check a live message against a named type" in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(ret (const validate $ schema_file $ instance_file $ type_arg))

(* ---- classify ---- *)

let classify path instance =
  let schema = Schema.of_string (read_file path) in
  let el = (Omf_xml.Parse.document (read_file instance)).Omf_xml.Doc.root in
  List.iter
    (fun (name, problems) ->
      Fmt.pr "%-24s %s@." name
        (if problems = 0 then "exact fit"
         else Printf.sprintf "%d problem(s)" problems))
    (Validate.classify schema el);
  `Ok ()

let classify_cmd =
  let doc = "rank which structure definition a message most closely fits" in
  Cmd.v
    (Cmd.info "classify" ~doc)
    Term.(ret (const classify $ schema_file $ instance_file))

(* ---- codegen ---- *)

let lang_conv : [ `C | `Ocaml ] Arg.conv =
  let parse = function
    | "c" -> Ok `C
    | "ocaml" -> Ok `Ocaml
    | s -> Error (`Msg (Printf.sprintf "unknown language %S (c, ocaml)" s))
  in
  Arg.conv
    (parse, fun ppf l -> Fmt.string ppf (match l with `C -> "c" | `Ocaml -> "ocaml"))

let lang_arg =
  Arg.(
    value & opt lang_conv `C
    & info [ "lang"; "l" ] ~docv:"LANG" ~doc:"Target language: c or ocaml.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write to FILE (default stdout).")

let mli_arg =
  Arg.(
    value & flag
    & info [ "mli" ]
        ~doc:"With --lang ocaml: emit the interface (.mli) instead of the \
              implementation.")

let codegen path lang mli out =
  let schema = Omf_xschema.Schema.of_string (read_file path) in
  let simple = Omf_xschema.Schema.find_simple_type schema in
  let decls =
    List.map
      (Omf_xml2wire.Mapper.decl_of_complex_type ~simple)
      schema.Omf_xschema.Schema.types
  in
  let text =
    match (lang, mli) with
    | `C, _ -> Omf_codegen.Codegen_c.header decls
    | `Ocaml, false -> Omf_codegen.Codegen_ocaml.module_text decls
    | `Ocaml, true -> Omf_codegen.Codegen_ocaml.interface_text decls
  in
  (match out with
  | None -> print_string text
  | Some file ->
    let oc = open_out file in
    output_string oc text;
    close_out oc);
  `Ok ()

let codegen_cmd =
  let doc =
    "generate language-level message representations (structs + compiled-in \
     metadata) from a schema"
  in
  Cmd.v
    (Cmd.info "codegen" ~doc)
    Term.(ret (const codegen $ schema_file $ lang_arg $ mli_arg $ out_arg))

(* ---- diff ---- *)

let new_schema_file =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"NEW.xsd" ~doc:"Upgraded metadata document.")

let diff old_path new_path =
  let old_schema = Schema.of_string (read_file old_path) in
  let new_schema = Schema.of_string (read_file new_path) in
  let reports =
    Omf_xml2wire.Compat.diff_schemas ~old_schema ~new_schema
  in
  List.iter (fun r -> Fmt.pr "%a@." Omf_xml2wire.Compat.pp_report r) reports;
  let worst =
    List.fold_left
      (fun acc r ->
        if
          Omf_xml2wire.Compat.severity_rank r.Omf_xml2wire.Compat.verdict
          > Omf_xml2wire.Compat.severity_rank acc
        then r.Omf_xml2wire.Compat.verdict
        else acc)
      Omf_xml2wire.Compat.Safe reports
  in
  match worst with
  | Omf_xml2wire.Compat.Breaking ->
    `Error (false, "breaking changes: running receivers would stop decoding")
  | _ -> `Ok ()

let diff_cmd =
  let doc =
    "analyse a metadata upgrade: what old receivers will see (exits      non-zero on breaking changes)"
  in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(ret (const diff $ schema_file $ new_schema_file))

(* ---- journal ---- *)

let journal_file =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"JOURNAL.omfj" ~doc:"Binary journal file to replay.")

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit"; "n" ] ~docv:"N" ~doc:"Print at most N records.")

let journal path jpath abi limit =
  match
    let catalog = Omf_xml2wire.Catalog.create abi in
    ignore
      (X2W.register_schema ~source:("file:" ^ path) catalog (read_file path));
    let reader, close =
      Omf_journal.Journal.Reader.of_file jpath
        (Omf_xml2wire.Catalog.registry catalog)
        (Omf_machine.Memory.create abi)
    in
    Fun.protect ~finally:close (fun () ->
        let rec go n =
          match limit with
          | Some l when n >= l -> n
          | _ -> (
            match Omf_journal.Journal.Reader.next_value reader with
            | None -> n
            | Some (fmt, v) ->
              Fmt.pr "%6d  %-20s %s@." n fmt.Format.name (Value.to_string v);
              go (n + 1))
        in
        let n = go 0 in
        Fmt.pr "%d record(s)@." n)
  with
  | () -> `Ok ()
  | exception Omf_journal.Journal.Journal_error m -> `Error (false, m)
  | exception Omf_pbio.Pbio.Unknown_format m ->
    `Error (false, "journal uses a format the schema does not define: " ^ m)
  | exception Omf_pbio.Convert.Field_mismatch m ->
    `Error (false, "journal is incompatible with the schema: " ^ m)

let journal_cmd =
  let doc = "replay a binary NDR journal against schema metadata" in
  Cmd.v
    (Cmd.info "journal" ~doc)
    Term.(ret (const journal $ schema_file $ journal_file $ abi_arg $ limit_arg))

(* ---- main ---- *)

let () =
  let doc = "run-time XML metadata for high-performance binary communication" in
  let info = Cmd.info "xml2wire" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ inspect_cmd; sizes_cmd; validate_cmd; classify_cmd; codegen_cmd
          ; diff_cmd; journal_cmd ]))
