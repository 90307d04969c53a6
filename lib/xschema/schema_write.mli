(** Render a {!Schema.t} back to an XML Schema document — the inverse
    direction ("wire2xml"): publish formats a process already holds as
    open metadata for others to discover. *)

val to_string : Schema.t -> string
(** Compact, round-trip-safe rendering. *)
