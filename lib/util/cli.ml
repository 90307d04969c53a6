let version = "1.0.0"

let usage ~name ~args =
  String.concat " " (("Usage: " ^ name) :: "[OPTION]..." :: args)

(* [line] already reads "NAME: message" *)
let usage_error ~name ~args line =
  Printf.eprintf "%s\n%s\nTry '%s --help' for more information.\n%!" line
    (usage ~name ~args) name;
  exit 124

let parse ~name ~doc ?(args = []) specs argv =
  let specs =
    Arg.align
      (specs
      @ [ ( "--version"
          , Arg.Unit
              (fun () ->
                print_endline version;
                exit 0)
          , " Print the version and exit." ) ])
  in
  let argv = Array.copy argv in
  argv.(0) <- name;
  let positional = ref [] in
  match
    Arg.parse_argv ~current:(ref 0) argv specs
      (fun a -> positional := a :: !positional)
      (Printf.sprintf "%s\n%s\n\nOptions:" (usage ~name ~args) doc)
  with
  | exception Arg.Help text ->
    print_string text;
    exit 0
  | exception Arg.Bad text ->
    (* Arg's message, without the option list it appends *)
    usage_error ~name ~args (List.hd (String.split_on_char '\n' text))
  | () ->
    let given = List.rev !positional in
    let n = List.length args and m = List.length given in
    if m < n then
      usage_error ~name ~args
        (Printf.sprintf "%s: required argument %s is missing" name
           (List.nth args m))
    else if m > n then
      usage_error ~name ~args
        (Printf.sprintf "%s: too many arguments, don't know what to do with '%s'"
           name (List.nth given n))
    else Array.of_list given

let conv parse set =
  Arg.String
    (fun s -> match parse s with Ok v -> set v | Error m -> raise (Arg.Bad m))

let exit_with ~name = function
  | `Ok () -> exit 0
  | `Error (_, msg) ->
    Printf.eprintf "%s: %s\n%!" name msg;
    exit 124
