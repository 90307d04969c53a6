(** JSON string escaping for the hand-written JSON bodies (trace export,
    the registry's HTTP surface): there is no JSON library in the tree. *)

val escape : string -> string
(** The body of a JSON string literal for [s]: quotes, backslashes and
    control characters escaped, everything else as is. *)
