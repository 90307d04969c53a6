(** Binary journals: NDR messages "written to data files in a
    heterogeneous computing environment" (section 4.1.2). A journal is
    an {!Omf_transport.Endpoint} over a file, so it embeds each format's
    descriptor and is replayable on any ABI by any process. *)

open Omf_machine
open Omf_pbio

exception Journal_error of string

module Writer : sig
  type t

  val to_file : string -> t * (unit -> unit)
  (** Writes the journal magic immediately. Returns the writer and a
      close function. *)

  val append : t -> Memory.t -> Format.t -> int -> unit
  (** Write the struct at the address of the memory, preceded by the
      format's descriptor if the journal has not announced it (or has
      announced a different format under its id). *)

  val record_count : t -> int
  (** Frames written: descriptors and messages. *)
end

module Reader : sig
  type t

  val of_file :
    string -> Format.Registry.t -> Memory.t -> t * (unit -> unit)
  (** Checks the magic. The registry supplies the reader's native
      formats (discovered or compiled-in, as usual). *)

  val next_value : t -> (Format.t * Value.t) option
  (** The next message, lifted to a value, after which the reader's
      memory is reset. [None] at clean EOF; {!Journal_error} (naming the
      byte offset) on truncation or corruption, a message before its
      format's descriptor included; {!Omf_pbio.Pbio.Unknown_format} for
      a format the registry lacks, and {!Omf_pbio.Convert.Field_mismatch}
      (naming the format and the field) for one it defines
      incompatibly. *)

  val fold : t -> ('a -> Format.t * Value.t -> 'a) -> 'a -> 'a
end
