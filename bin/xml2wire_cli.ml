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
      journal.
    - [xml2wire register flights flight.xsd] registers a schema with a
      registryd, and [xml2wire fetch flights latest] prints a
      registered one, over the registry's frame protocol. *)

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

let abi_of_string s =
  match Abi.find_by_name s with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown ABI %S (known: %s)" s
         (String.concat ", " (List.map (fun a -> a.Abi.name) Abi.all)))

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

(* ---- validate ---- *)

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

(* ---- codegen ---- *)

let lang_of_string = function
  | "c" -> Ok `C
  | "ocaml" -> Ok `Ocaml
  | s -> Error (Printf.sprintf "unknown language %S (c, ocaml)" s)

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

(* ---- diff ---- *)

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

(* ---- journal ---- *)

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
  | exception Omf_util.Decode.Error { layer; offset; reason } ->
    `Error
      (false, "corrupt journal: " ^ Omf_util.Decode.message layer offset reason)
  | exception Omf_pbio.Pbio.Unknown_format m ->
    `Error (false, "journal uses a format the schema does not define: " ^ m)
  | exception Omf_pbio.Convert.Field_mismatch m ->
    `Error (false, "journal is incompatible with the schema: " ^ m)

(* ---- register / fetch: a registryd, over its frames ---- *)

module Registry = Omf_registry.Registry

(* one call on a fresh connection to the registry at [host:port] *)
let call host port f =
  let c = Registry.Client.connect ~host ~port () in
  Fun.protect ~finally:(fun () -> Registry.Client.close c) (fun () -> f c)

let register host port subject path =
  let text = read_file path in
  match call host port (fun c -> Registry.Client.register c ~subject text) with
  | version, fingerprint ->
    Fmt.pr "version %d fingerprint %s@." version fingerprint;
    `Ok ()
  | exception Registry.Client.Rejected msg -> (
    match String.split_on_char '\n' msg with
    | gate :: diff when String.starts_with ~prefix:"incompatible with " gate ->
      (* the diff on stdout and status 1, as [diff] reports a breaking
         change *)
      List.iter print_endline diff;
      prerr_endline ("xml2wire register: " ^ gate);
      exit 1
    | _ -> `Error (false, msg))

let fetch host port subject spec =
  match
    if spec = "latest" then Some `Latest
    else Option.map (fun n -> `N n) (int_of_string_opt spec)
  with
  | None -> `Error (false, Printf.sprintf "bad version %S (N or latest)" spec)
  | Some version -> (
    match call host port (fun c -> Registry.Client.get c ~subject version) with
    | Some v ->
      print_string v.Registry.schema;
      `Ok ()
    | None -> `Error (false, Printf.sprintf "no version %s of %s" spec subject))

(* ---- main ---- *)

let () =
  let name = "xml2wire" and conv = Omf_util.Cli.conv in
  let abi = ref Abi.native
  and type_name = ref None
  and lang = ref `C
  and mli = ref false
  and out = ref None
  and limit = ref None
  and host = ref "127.0.0.1"
  and port = ref 8091 in
  let abi_spec =
    ( "--abi"
    , conv abi_of_string (( := ) abi)
    , Printf.sprintf "ABI Target machine ABI (%s; default the host's)."
        (String.concat ", " (List.map (fun a -> a.Abi.name) Abi.all)) )
  in
  let registry_specs =
    [ ( "--host"
      , Arg.Set_string host
      , "HOST The registryd's address (default 127.0.0.1)." )
    ; ( "--port"
      , Arg.Set_int port
      , "PORT The registryd's frame port (default 8091)." ) ]
  in
  let commands =
    [ ( "inspect"
      , "parse a metadata document; dump Catalog, IOFields and layouts"
      , [ "SCHEMA.xsd" ]
      , [ abi_spec ]
      , fun a -> inspect a.(0) !abi )
    ; ( "sizes"
      , "sizeof() of every format on every known ABI"
      , [ "SCHEMA.xsd" ]
      , []
      , fun a -> sizes a.(0) )
    ; ( "validate"
      , "schema-check a live message against a named type"
      , [ "SCHEMA.xsd"; "MESSAGE.xml" ]
      , [ ( "--type"
          , Arg.String (fun t -> type_name := Some t)
          , "NAME complexType to validate against (required)." )
        ; ("-t", Arg.String (fun t -> type_name := Some t), "NAME Same as --type.")
        ]
      , fun a ->
          match !type_name with
          | Some t -> validate a.(0) a.(1) t
          | None -> `Error (false, "required option --type is missing") )
    ; ( "classify"
      , "rank which structure definition a message most closely fits"
      , [ "SCHEMA.xsd"; "MESSAGE.xml" ]
      , []
      , fun a -> classify a.(0) a.(1) )
    ; ( "codegen"
      , "generate language-level message representations (structs + \
         compiled-in metadata) from a schema"
      , [ "SCHEMA.xsd" ]
      , [ ( "--lang"
          , conv lang_of_string (( := ) lang)
          , "LANG Target language: c (the default) or ocaml." )
        ; ("-l", conv lang_of_string (( := ) lang), "LANG Same as --lang.")
        ; ( "--mli"
          , Arg.Set mli
          , " With --lang ocaml: emit the interface (.mli) instead of the \
             implementation." )
        ; ( "--output"
          , Arg.String (fun f -> out := Some f)
          , "FILE Write to FILE (default stdout)." )
        ; ("-o", Arg.String (fun f -> out := Some f), "FILE Same as --output.")
        ]
      , fun a -> codegen a.(0) !lang !mli !out )
    ; ( "diff"
      , "analyse a metadata upgrade: what old receivers will see (exits \
         non-zero on breaking changes)"
      , [ "SCHEMA.xsd"; "NEW.xsd" ]
      , []
      , fun a -> diff a.(0) a.(1) )
    ; ( "journal"
      , "replay a binary NDR journal against schema metadata"
      , [ "SCHEMA.xsd"; "JOURNAL.omfj" ]
      , [ abi_spec
        ; ( "--limit"
          , Arg.Int (fun n -> limit := Some n)
          , "N Print at most N records." )
        ; ("-n", Arg.Int (fun n -> limit := Some n), "N Same as --limit.") ]
      , fun a -> journal a.(0) a.(1) !abi !limit )
    ; ( "register"
      , "register a schema with a registryd under a subject; prints its \
         version and fingerprint (exits 1 with the diff on a gate refusal)"
      , [ "SUBJECT"; "SCHEMA.xsd" ]
      , registry_specs
      , fun a -> register !host !port a.(0) a.(1) )
    ; ( "fetch"
      , "print a schema registered with a registryd (default: the latest \
         version)"
      , [ "SUBJECT"; "[N|latest]" ]
      , registry_specs
      , fun a ->
          fetch !host !port a.(0)
            (if Array.length a > 1 then a.(1) else "latest") ) ]
  in
  let argv = Sys.argv in
  let command = if Array.length argv > 1 then argv.(1) else "" in
  match List.find_opt (fun (c, _, _, _, _) -> c = command) commands with
  | Some (c, doc, args, specs, run) ->
    let a =
      Omf_util.Cli.parse ~name:(name ^ " " ^ c) ~doc:(name ^ " " ^ c ^ ": " ^ doc)
        ~args specs
        (Array.sub argv 1 (Array.length argv - 1))
    in
    Omf_util.Cli.exit_with ~name
      (match run a with
      | r -> r
      | exception (Sys_error m | Registry.Client.Server_unavailable m) ->
        `Error (false, m))
  | None ->
    (* no command: --help, --version or a usage error *)
    let names = List.map (fun (c, _, _, _, _) -> c) commands in
    let a =
      Omf_util.Cli.parse ~name
        ~doc:
          (String.concat "\n"
             ((name
              ^ ": run-time XML metadata for high-performance binary \
                 communication\n\n\
                 Commands (COMMAND --help for each):")
             :: List.map
                  (fun (c, doc, _, _, _) -> Printf.sprintf "  %-10s %s" c doc)
                  commands))
        ~args:[ "COMMAND" ] []
        (Array.sub argv 0 (min 2 (Array.length argv)))
    in
    Omf_util.Cli.exit_with ~name
      (`Error
        ( false
        , Printf.sprintf "unknown command '%s', must be one of %s" a.(0)
            (String.concat ", " names) ))
