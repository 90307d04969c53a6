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

val equal : t -> t -> bool
(** Structural; floats compare by bit pattern (NaN-safe, so a NaN equals
    the same NaN and [-0.0] differs from [0.0]). Representation-blind:
    [Floats a] equals an [Array] of [Float]s whose bits match [a]'s,
    element by element, and nothing else (an [Array] of [Int]s with the
    same numbers differs). Allocates nothing: no closure per array or
    record compared. *)

val to_string : t -> string
(** [Floats a] prints exactly as the [Array] of its [Float]s:
    [[|0x1p+0; -0x1.8p+1|]]. *)

(** {1 Record helpers} *)

val lookup : string -> (string * t) list -> t
(** The first binding of the name among a record's bindings, with no
    option box. Raises [Not_found]. *)

val field : t -> string -> t option
(** The first binding of the name in a record; [None] for an absent name
    or a non-record. Allocates only the [Some] it returns. *)

val field_exn : t -> string -> t
(** {!field} without the option: allocates nothing. Raises
    [Invalid_argument] naming the field when there is none. *)

val set_field : t -> string -> t -> t
(** [set_field r name v] binds [name] to [v] in record [r]: every binding
    of [name] is replaced, in place in the binding order; a record with
    none gets one appended. The result shares [r]'s unchanged bindings
    and the tail after the last replaced one, so stamping one field
    rebuilds only the list cells up to it. Raises [Invalid_argument]
    on a non-record. *)

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

val to_record_exn : t -> (string * t) list
