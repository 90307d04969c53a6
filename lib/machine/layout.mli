(** C structure layout engine: computes, for declared fields and a target
    {!Abi.t}, the offsets, padding and total size the target platform's C
    compiler would produce — the stand-in for the paper's [sizeof] and
    [IOOffset] calculations, done "on the same machine which will actually
    perform the PBIO calls". System V rules: fields at the next multiple
    of their alignment; struct alignment = max field alignment; total size
    rounded up to it. *)

type ctype =
  | Prim of Abi.prim
  | Struct of t  (** a previously laid-out structure, used inline *)

and dim =
  | Scalar
  | Fixed_array of int  (** inline array with static bound *)
  | Pointer_to of ctype
      (** pointer-valued field: strings and dynamically-allocated arrays *)

and field = {
  name : string;
  ctype : ctype;
  dim : dim;
  offset : int;
  elem_size : int;  (** one element (the pointee for [Pointer_to]) *)
  field_size : int;  (** bytes occupied inside the struct *)
  align : int;
}

and t = {
  struct_name : string;
  abi : Abi.t;
  fields : field list;
  size : int;  (** total size including trailing padding ([sizeof]) *)
  end_offset : int;
      (** offset just past the last field, before trailing padding — the
          figure the paper's Table 1 reports for structure C/D *)
  struct_align : int;
}

type decl = { d_name : string; d_ctype : ctype; d_dim : dim }
(** Declaration-side view of a field, before offsets are assigned. *)

exception Layout_error of string

val compute : abi:Abi.t -> name:string -> decl list -> t
(** Lays out the structure. Field names must be unique; fixed array
    bounds positive. Raises {!Layout_error} otherwise. *)

val pp : Format.formatter -> t -> unit
(** Compiler-style record-layout dump. *)
