(** The libraries' log: one stderr line per message, written as
    [<exe>: [LEVEL] message] (the executable's base name, then ERROR,
    WARNING, INFO or DEBUG).

    Nothing is printed until {!set_level} is called, so a library
    linked into a test or a client stays silent; the daemons set
    [Info], or [Debug] under [--verbose]. A message is formatted only
    when its level is printed:
    [Log.info (fun m -> m "shard %d stopped" i)]. *)

type level = Error | Warning | Info | Debug

val set_level : level -> unit
(** Print messages of this level and the levels above it. *)

type 'a msgf = ('a, unit, string, unit) format4 -> 'a

val err : ('a msgf -> unit) -> unit
val warn : ('a msgf -> unit) -> unit
val info : ('a msgf -> unit) -> unit
val debug : ('a msgf -> unit) -> unit
