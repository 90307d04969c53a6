(** C structure layout engine.

    Computes, for a sequence of declared fields and a target {!Abi.t}, the
    same offsets, padding and total size that the target platform's C
    compiler would produce. This is the stand-in for the paper's use of
    [sizeof] and the [IOOffset] macro: the calculations are "carried out in
    the same manner and on the same machine" — here, under the same ABI
    description — "which will actually perform the PBIO calls".

    Layout rules are the System V ones:
    - each field is placed at the next multiple of its alignment;
    - struct alignment is the maximum alignment of its fields;
    - total size is rounded up to the struct alignment;
    - a fixed array of T has T's alignment and [n * sizeof(T)] size;
    - strings and dynamically-sized arrays occupy one pointer. *)

type ctype =
  | Prim of Abi.prim
  | Struct of t  (** a previously laid-out structure, used inline *)

and dim =
  | Scalar
  | Fixed_array of int  (** inline array of known bound *)
  | Pointer_to of ctype
      (** pointer-valued field: strings ([Pointer_to (Prim Char)]) and
          dynamically-allocated arrays *)

and field = {
  name : string;
  ctype : ctype;
  dim : dim;
  offset : int;
  elem_size : int;  (** size of one element (the pointee for [Pointer_to]) *)
  field_size : int;  (** bytes this field occupies inside the struct *)
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

(** Declaration-side view of a field, before offsets are assigned. *)
type decl = { d_name : string; d_ctype : ctype; d_dim : dim }

let ctype_size abi = function
  | Prim p -> Abi.size_of abi p
  | Struct s ->
    assert (String.equal s.abi.Abi.name abi.Abi.name);
    s.size

let ctype_align abi = function
  | Prim p -> Abi.align_of abi p
  | Struct s -> s.struct_align

let round_up v align = (v + align - 1) / align * align

exception Layout_error of string

(** [compute ~abi ~name decls] lays out the structure. Field names must be
    unique; fixed array bounds must be positive. *)
let compute ~(abi : Abi.t) ~(name : string) (decls : decl list) : t =
  let seen = Hashtbl.create 16 in
  let place (fields_rev, offset, struct_align) d =
    if Hashtbl.mem seen d.d_name then
      raise (Layout_error (Printf.sprintf "duplicate field %S" d.d_name));
    Hashtbl.add seen d.d_name ();
    let elem_size, field_size, align =
      match d.d_dim with
      | Scalar ->
        let s = ctype_size abi d.d_ctype in
        (s, s, ctype_align abi d.d_ctype)
      | Fixed_array n ->
        if n <= 0 then
          raise
            (Layout_error (Printf.sprintf "field %S: array bound %d" d.d_name n));
        let s = ctype_size abi d.d_ctype in
        (s, n * s, ctype_align abi d.d_ctype)
      | Pointer_to pointee ->
        let ptr = Abi.size_of abi Abi.Pointer in
        (ctype_size abi pointee, ptr, Abi.align_of abi Abi.Pointer)
    in
    let offset = round_up offset align in
    let f =
      { name = d.d_name; ctype = d.d_ctype; dim = d.d_dim; offset; elem_size
      ; field_size; align }
    in
    (f :: fields_rev, offset + field_size, max struct_align align)
  in
  let fields_rev, end_offset, struct_align =
    List.fold_left place ([], 0, 1) decls
  in
  let size = if end_offset = 0 then 0 else round_up end_offset struct_align in
  { struct_name = name; abi; fields = List.rev fields_rev; size; end_offset
  ; struct_align }

(** Render the layout like a compiler's record-layout dump; used by the
    CLI tool and handy in test failures. *)
let rec pp ppf t =
  Fmt.pf ppf "struct %s [%s] size=%d align=%d@," t.struct_name t.abi.Abi.name
    t.size t.struct_align;
  List.iter
    (fun f ->
      Fmt.pf ppf "  %4d: %s %s%s (size %d)@," f.offset (ctype_string f.ctype)
        f.name (dim_string f) f.field_size)
    t.fields

and ctype_string = function
  | Prim p -> Abi.prim_name p
  | Struct s -> "struct " ^ s.struct_name

and dim_string f =
  match f.dim with
  | Scalar -> ""
  | Fixed_array n -> Printf.sprintf "[%d]" n
  | Pointer_to _ -> "*"
