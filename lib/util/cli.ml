let version = "1.0.0"

(* --help lines are wrapped to this many columns *)
let width = 80

(* the index just past the word at [i] and the spaces after it *)
let next_word s i =
  let rec skip p i =
    if i < String.length s && p s.[i] then skip p (i + 1) else i
  in
  skip (Char.equal ' ') (skip (fun c -> not (Char.equal c ' ')) i)

(* [line] with its text from column [col] on refilled into lines of at
   most [width] columns, each indented to [col] *)
let wrap col line =
  let words =
    String.sub line col (String.length line - col)
    |> String.split_on_char ' ' |> List.filter (( <> ) "")
  in
  match words with
  | w :: ws when String.length line > width ->
    let fill (cur, lines) w =
      if col + String.length cur + 1 + String.length w <= width then
        (cur ^ " " ^ w, lines)
      else (w, cur :: lines)
    in
    let cur, lines = List.fold_left fill (w, []) ws in
    String.sub line 0 col
    ^ String.concat ("\n" ^ String.make col ' ') (List.rev (cur :: lines))
  | _ -> line

let usage ~name ~args =
  String.concat " " (("Usage: " ^ name) :: "[OPTION]..." :: args)

(* [line] already reads "NAME: message" *)
let usage_error ~name ~args line =
  Printf.eprintf "%s\n%s\nTry '%s --help' for more information.\n%!" line
    (usage ~name ~args) name;
  exit 124

let parse ~name ~doc ?(args = []) specs argv =
  (* an option prints as "  KEY DOC", DOC being its metavar, padding and
     sentence: the sentence wraps at its own column *)
  let wrap_option (key, spec, doc) =
    let at = 3 + String.length key in
    let line = wrap (at + next_word doc 0) ("  " ^ key ^ " " ^ doc) in
    (key, spec, String.sub line at (String.length line - at))
  in
  let specs =
    List.map wrap_option
      (Arg.align
         (specs
         @ [ ( "--version"
             , Arg.Unit
                 (fun () ->
                   print_endline version;
                   exit 0)
             , " Print the version and exit." ) ]))
  in
  (* an indented line of [doc] is a table row, "  NAME  what it does",
     whose text wraps at its second column; prose wraps at the margin *)
  let doc =
    String.split_on_char '\n' doc
    |> List.map (fun l ->
           let indented = String.starts_with ~prefix:" " l in
           wrap (if indented then next_word l (next_word l 0) else 0) l)
    |> String.concat "\n"
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
    let required = List.length (List.filter (fun a -> a.[0] <> '[') args) in
    if m < required then
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
