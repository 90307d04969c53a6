(** Binary journals: NDR messages "written to data files in a
    heterogeneous computing environment" (section 4.1.2). A journal is
    an {!Omf_transport.Endpoint} over a file, so it embeds each format's
    descriptor and is replayable on any ABI by any process. *)

open Omf_machine
open Omf_pbio

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
  (** Checks the magic ([Omf_util.Decode.Error] otherwise). The
      registry supplies the reader's native formats (discovered or
      compiled-in, as usual). *)

  val next_value : t -> (Format.t * Value.t) option
  (** The next message, lifted to a value, after which the reader's
      memory is reset. [None] at clean EOF. A torn or corrupt record (a
      message before its format's descriptor included) raises only
      [Omf_util.Decode.Error], at the record's byte offset in the file;
      a format the registry lacks {!Omf_pbio.Pbio.Unknown_format}, and
      one it defines incompatibly {!Omf_pbio.Convert.Field_mismatch}
      (naming the format and the field). *)

  val fold : t -> ('a -> Format.t * Value.t -> 'a) -> 'a -> 'a
end
