(** Application-level typed values: the OCaml face of the C data a
    simulated process keeps in its {!Omf_machine.Memory}. *)

type t =
  | Int of int64  (** signed integer of any C width *)
  | Uint of int64  (** unsigned; bit pattern in an [int64] *)
  | Float of float
  | Char of char
  | String of string
  | Array of t array
  | Floats of floatarray
      (** An array of floats held unboxed. {!Native.load} returns every
          C [float]/[double] array this way (8 B per element instead of
          a boxed [Float]'s 40 B), and {!Native.store} accepts it for
          any float-array field. It is one representation of the value
          [Array [|Float x0; Float x1; ...|]], never a different value:
          {!equal} and {!pp} cannot tell the two apart, and
          {!to_array_exn} converts. *)
  | Record of (string * t) list
      (** A record by name: the literal form programs build values in.
          Names may repeat; the first binding of a name is the one read. *)
  | Struct of { names : string array; values : t array }
      (** A record held positionally: [values.(i)] is the field named
          [names.(i)]. {!Native.load} and the other decoders return
          every record this way, with [names] the format's own
          {!Format.t.names}, one array shared by every value of that
          format (a decoded record costs one [values] array, 8 B per
          field, and this 24 B block). [names] and [values] have the same
          length and the names are unique. It is one representation of
          the value [Record [(names.(0), values.(0)); ...]], never a
          different value: {!equal} and {!pp} cannot tell the two
          apart. *)

val equal : t -> t -> bool
(** Structural; floats compare by bit pattern (NaN-safe, so a NaN equals
    the same NaN and [-0.0] differs from [0.0]). Representation-blind:
    [Floats a] equals an [Array] of [Float]s whose bits match [a]'s,
    element by element, and nothing else (an [Array] of [Int]s with the
    same numbers differs). A [Struct] equals the [Record] of the same
    bindings in the same order, and two [Struct]s compare their names
    by [==] before [String.equal]. Allocates nothing: no closure per
    array or record compared. *)

val to_string : t -> string
(** [Floats a] prints exactly as the [Array] of its [Float]s:
    [[|0x1p+0; -0x1.8p+1|]], and a [Struct] as the [Record] of its
    bindings: [{ a = 1; b = 2 }]. *)

(** {1 Record helpers} *)

(** Each reads a record of either form; a [Struct]'s names are scanned
    in place. *)

val lookup : string -> t -> t
(** The first binding of the name in a record, with no option box.
    Raises [Not_found] for an absent name or a non-record. *)

val field : t -> string -> t option
(** {!lookup} with an option: [None] for an absent name or a
    non-record. Allocates only the [Some] it returns. *)

val field_exn : t -> string -> t
(** {!field} without the option: allocates nothing. Raises
    [Invalid_argument] naming the field when there is none. *)

val set_field : t -> string -> t -> t
(** [set_field r name v] binds [name] to [v] in record [r]: every binding
    of [name] is replaced, in place in the binding order; a record with
    none gets one appended. On a [Record] the result shares [r]'s
    unchanged bindings and the tail after the last replaced one, so
    stamping one field rebuilds only the list cells up to it. On a
    [Struct] holding [name] it is one copy of [values] and a new
    [Struct] sharing [names] (it stays positional); on a [Struct]
    without [name] it falls back to the [Record] of the bindings with
    the new one appended. Raises [Invalid_argument] on a non-record. *)

(** {1 Coercions} (used by codecs) *)

exception Type_error of string

val type_error : ('a, unit, string, 'b) format4 -> 'a

val to_int64 : t -> int64
(** Accepts [Int], [Uint] and [Char]. *)

val to_float_exn : t -> float
val to_string_exn : t -> string
val to_array_exn : t -> t array
(** The elements of an [Array], or of a [Floats] as a freshly allocated
    array of boxed [Float]s (one 40 B box per element: generic code's
    way in, not the hot path's). *)
