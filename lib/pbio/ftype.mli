(** Field and format {e declarations}: the logical message description
    that both compiled-in metadata (the paper's [IOField] arrays) and
    xml2wire's schema translation produce, before machine-specific layout
    is assigned. *)

open Omf_machine

type elem =
  | Int_t of Abi.prim  (** a signed or unsigned C integer type *)
  | Float_t of Abi.prim  (** [Abi.Float] or [Abi.Double] *)
  | Char_t  (** single character, one byte *)
  | String_t  (** [char*], NUL-terminated *)
  | Named_t of string  (** a previously registered format, nested inline *)

type dim =
  | Scalar
  | Fixed of int  (** inline array with static bound, e.g. [integer[5]] *)
  | Var of string
      (** dynamically-allocated array; the named integer control field of
          the same record holds the run-time count *)

type field = { f_name : string; f_elem : elem; f_dim : dim }
type t = { name : string; fields : field list }

val field : ?dim:dim -> string -> elem -> field

(** {1 IOField-style type strings} — "integer", "string",
    "unsigned long[5]", "integer[eta_count]", or a format name. *)

exception Bad_type_string of string

val of_type_string : string -> elem * dim
val elem_to_string : elem -> string
val to_type_string : elem * dim -> string

val io_field : string -> string -> field
(** One row of a PBIO [IOField] array: [(name, type string)]. *)

val declare : string -> (string * string) list -> t
(** A whole declaration from IOField-style rows — the compiled-in
    metadata style. *)

val pp : Stdlib.Format.formatter -> t -> unit
