(** Binary journals: NDR messages "written to data files in a
    heterogeneous computing environment" (section 4.1.2). Journals embed
    format descriptors before first use, so they are self-describing and
    replayable on any ABI by any process. *)

open Omf_machine
open Omf_pbio

exception Journal_error of string

module Writer : sig
  type t

  val to_file : string -> t * (unit -> unit)
  (** Writes the journal magic immediately. Returns the writer and a
      close function. *)

  val append : t -> Memory.t -> Format.t -> int -> unit
  (** Write the struct at the address, preceded by the format's
      descriptor if not yet journaled. *)

  val record_count : t -> int
end

module Reader : sig
  type t

  val of_file :
    string -> Format.Registry.t -> Memory.t -> t * (unit -> unit)
  (** Checks the magic. The registry supplies the reader's native
      formats (discovered or compiled-in, as usual). *)

  val next_value : t -> (Format.t * Value.t) option
  (** The next message, lifted to a value; descriptor records are
      ingested transparently. [None] at clean EOF; {!Journal_error} on
      truncation or corruption. *)

  val fold : t -> ('a -> Format.t * Value.t -> 'a) -> 'a -> 'a
end
