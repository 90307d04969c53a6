(** Registered message formats and the per-process format registry: a
    declaration resolved against previously registered formats (the
    Catalog role), laid out for the registry's {!Omf_machine.Abi.t}, and
    assigned the format id that is each message's whole header
    ({!Wire}). *)

open Omf_machine

exception Registration_error of string

type relem =
  | Rint of { prim : Abi.prim; signed : bool }
  | Rfloat of Abi.prim
  | Rchar
  | Rstring
  | Rnested of t

and rdim =
  | Rscalar
  | Rfixed of int
  | Rvar of { control : string; at : int }
      (** a dynamic array: its control field's name, and that field's
          index in [fields] ([at]), resolved once at registration *)

and rfield = {
  rf_name : string;
  rf_elem : relem;
  rf_dim : rdim;
  rf_layout : Layout.field;  (** offsets / sizes under [abi] *)
  rf_counts : int;
      (** the index in [fields] of the first dynamic array this field
          controls, or -1 when it controls none. A control shared by
          several arrays names the first; the others are the later
          fields whose [rf_dim] is [Rvar] with this field's index. *)
  rf_recount : bool;
      (** in declaration order, a count this field must agree with is
          already read: it controls a dynamic array declared before it,
          or it is a dynamic array whose control, or another array on
          that control, comes before it. A reader of a format that also
          carries each array's length (XDR) compares here. *)
}

and t = {
  name : string;
  id : int;
      (** registry-assigned, and sent as the 4-byte header of each
          message; wire-side formats carry the peer's *)
  abi : Abi.t;
  fields : rfield array;
      (** in declaration order: [fields.(i)] is the field named
          [names.(i)] *)
  names : string array;
      (** the fields' names in declaration order: the [names] of every
          {!Value.Struct} decoded in this format, this very array *)
  layout : Layout.t;
  decl : Ftype.t;  (** the logical declaration this was resolved from *)
}

val resolve : abi:Abi.t -> id:int -> (string -> t option) -> Ftype.t -> t
(** Resolve and lay out a declaration; [lookup] supplies nested formats.
    Raises {!Registration_error} on unknown nested formats, missing or
    non-integer control fields, or empty declarations. *)

val find_field : t -> string -> rfield option
val struct_size : t -> int

val elem_align : Abi.t -> relem -> int
(** The alignment of one element under an ABI (a dynamic array's block). *)

val layout_signature : t -> string
(** Stable signature of the physical layout: equal signatures mean
    byte-identical native images for equal logical data (the
    zero-conversion fast path). *)

val pp_io_fields : Stdlib.Format.formatter -> t -> unit
(** Render as PBIO IOField rows (compare the paper's Figures 5/8/11). *)

(** Per-process registry. *)
module Registry : sig
  type format = t
  type t

  val create : Abi.t -> t
  val abi : t -> Abi.t
  val find : t -> string -> format option

  val find_exn : t -> string -> format
  (** {!find} without the option: raises [Not_found]. *)

  val register : t -> Ftype.t -> format
  (** Resolves nested references against current contents (Catalog
      ordering); re-registering a name replaces it (run-time upgrade). *)
end
