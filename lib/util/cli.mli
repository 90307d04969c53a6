(** The executables' command lines, parsed with Stdlib [Arg].

    Options are spelled in full ([--policy], never [--pol]) and take
    their value as [--opt V] or [--opt=V]. A usage error prints
    [NAME: message] and a usage line on stderr and exits 124, as does an
    error the program returns ({!exit_with}): scripts and tests read
    that status and that line as a failed start. *)

val parse :
  name:string ->
  doc:string ->
  ?args:string list ->
  (string * Arg.spec * string) list ->
  string array ->
  string array
(** [parse ~name ~doc ~args specs argv] parses [argv] (its first element,
    the program, is skipped) and returns its positional arguments, one
    per name in [args] (none by default); a name in brackets
    (["[N]"]) may be left off, from the end. Each doc in [specs] reads
    ["METAVAR Sentence."], or [" Sentence."] for a flag, as
    {!Arg.align} lays them out. [--help] prints [doc] and the options
    on stdout, each line wrapped to 80 columns (an option's sentence,
    and an indented line of [doc], continue at their own column), and
    [--version] the version; both exit 0. *)

val conv : (string -> ('a, string) result) -> ('a -> unit) -> Arg.spec
(** An option whose value [parse] reads: [conv parse set] passes the
    parsed value to [set], and makes an [Error msg] a usage error. *)

val exit_with : name:string -> [ `Ok of unit | `Error of bool * string ] -> 'a
(** Exit 0 on [`Ok ()]; on [`Error (_, msg)] print [NAME: msg] on stderr
    and exit 124. *)
