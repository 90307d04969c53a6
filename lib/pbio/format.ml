(** Registered message formats and the per-process format registry.

    Registration is the paper's *binding*-side bookkeeping: a declaration
    ({!Ftype.t}) is resolved against previously registered formats (the
    Catalog role), laid out for the registry's {!Abi.t} — computing the
    same sizes and offsets the host C compiler would — and assigned a
    format identifier that travels in every message header. *)

open Omf_machine

exception Registration_error of string

let reg_error fmt = Printf.ksprintf (fun s -> raise (Registration_error s)) fmt

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
      (** the control field's name and its index in [fields] *)

and rfield = {
  rf_name : string;
  rf_elem : relem;
  rf_dim : rdim;
  rf_layout : Layout.field;  (** offset / sizes under [abi] *)
  rf_counts : int;  (** index of the first array it counts, or -1 *)
  rf_recount : bool;  (** a count it must agree with comes before it *)
}

and t = {
  name : string;
  id : int;  (** registry-assigned; 0 for unregistered wire formats *)
  abi : Abi.t;
  fields : rfield array;
  names : string array;
      (** the fields' names in declaration order: the [names] of every
          {!Value.Struct} decoded in this format, this very array *)
  layout : Layout.t;
  decl : Ftype.t;  (** the logical declaration this was resolved from *)
}

(* ------------------------------------------------------------------ *)
(* Resolution: declaration -> resolved fields + layout                 *)
(* ------------------------------------------------------------------ *)

let resolve_elem lookup fmt_name (f : Ftype.field) : relem =
  match f.Ftype.f_elem with
  | Ftype.Int_t p -> Rint { prim = p; signed = Abi.prim_signed p }
  | Ftype.Float_t p -> Rfloat p
  | Ftype.Char_t -> Rchar
  | Ftype.String_t -> Rstring
  | Ftype.Named_t n -> (
    match lookup n with
    | Some nested -> Rnested nested
    | None ->
      reg_error "format %S, field %S: unknown nested format %S" fmt_name
        f.Ftype.f_name n)

let layout_ctype (relem : relem) : Layout.ctype =
  match relem with
  | Rint { prim; _ } -> Layout.Prim prim
  | Rfloat p -> Layout.Prim p
  | Rchar -> Layout.Prim Abi.Char
  | Rstring -> Layout.Prim Abi.Pointer
  | Rnested nested -> Layout.Struct nested.layout

let pointee_of = function
  | Rstring -> Layout.Prim Abi.Char
  | other -> layout_ctype other

let layout_decl (f : Ftype.field) (relem : relem) : Layout.decl =
  match (f.Ftype.f_dim, relem) with
  | Ftype.Scalar, Rstring ->
    { Layout.d_name = f.Ftype.f_name; d_ctype = Layout.Prim Abi.Pointer
    ; d_dim = Layout.Pointer_to (Layout.Prim Abi.Char) }
  | Ftype.Scalar, other ->
    { Layout.d_name = f.Ftype.f_name; d_ctype = layout_ctype other
    ; d_dim = Layout.Scalar }
  | Ftype.Fixed n, Rstring ->
    (* an inline array of char* pointers *)
    { Layout.d_name = f.Ftype.f_name; d_ctype = Layout.Prim Abi.Pointer
    ; d_dim = Layout.Fixed_array n }
  | Ftype.Fixed n, other ->
    { Layout.d_name = f.Ftype.f_name; d_ctype = layout_ctype other
    ; d_dim = Layout.Fixed_array n }
  | Ftype.Var _, Rstring ->
    (* char**: a pointer to an array of char* elements *)
    { Layout.d_name = f.Ftype.f_name; d_ctype = Layout.Prim Abi.Pointer
    ; d_dim = Layout.Pointer_to (Layout.Prim Abi.Pointer) }
  | Ftype.Var _, other ->
    { Layout.d_name = f.Ftype.f_name; d_ctype = Layout.Prim Abi.Pointer
    ; d_dim = Layout.Pointer_to (pointee_of other) }

(** Resolve and lay out a declaration. [lookup] supplies nested formats
    (registry contents). Each dynamic array's control is resolved here,
    once, to an index: the walkers read the relation, never a name. *)
let resolve ~(abi : Abi.t) ~(id : int) (lookup : string -> t option)
    (decl : Ftype.t) : t =
  let name = decl.Ftype.name in
  if String.equal name "" then reg_error "empty format name";
  if decl.Ftype.fields = [] then reg_error "format %S has no fields" name;
  let decls = Array.of_list decl.Ftype.fields in
  let relems = Array.map (resolve_elem lookup name) decls in
  let layout =
    Layout.compute ~abi ~name
      (Array.to_list (Array.map2 layout_decl decls relems))
  in
  (* [Layout.compute] refused duplicates: a name is one field's *)
  let index = Hashtbl.create (Array.length decls) in
  Array.iteri
    (fun i (d : Ftype.field) -> Hashtbl.add index d.Ftype.f_name i)
    decls;
  let counts = Array.make (Array.length decls) (-1) in
  let dim i (d : Ftype.field) =
    match d.Ftype.f_dim with
    | Ftype.Scalar -> Rscalar
    | Ftype.Fixed n -> Rfixed n
    | Ftype.Var control ->
      let at =
        match Hashtbl.find_opt index control with
        | Some at -> at
        | None ->
          reg_error "format %S: field %S references missing control field %S"
            name d.Ftype.f_name control
      in
      (match (relems.(at), decls.(at).Ftype.f_dim) with
      | Rint _, Ftype.Scalar -> ()
      | _ ->
        reg_error "format %S: control field %S of %S is not a scalar integer"
          name control d.Ftype.f_name);
      if counts.(at) < 0 then counts.(at) <- i;
      Rvar { control; at }
  in
  let dims = Array.mapi dim decls in
  (* a count this field must agree with is read before it: the first
     array it counts, or its own control or that control's first array *)
  let recount i = function
    | Rvar { at; _ } -> at < i || counts.(at) < i
    | Rscalar | Rfixed _ -> counts.(i) >= 0 && counts.(i) < i
  in
  let fields =
    Array.of_list
      (List.mapi
         (fun i (lf : Layout.field) ->
           { rf_name = lf.Layout.name; rf_elem = relems.(i); rf_dim = dims.(i)
           ; rf_layout = lf; rf_counts = counts.(i)
           ; rf_recount = recount i dims.(i) })
         layout.Layout.fields)
  in
  let names = Array.map (fun f -> f.rf_name) fields in
  { name; id; abi; fields; names; layout; decl }

let elem_align (abi : Abi.t) = function
  | Rint { prim; _ } | Rfloat prim -> Abi.align_of abi prim
  | Rchar -> 1
  | Rstring -> Abi.align_of abi Abi.Pointer
  | Rnested nested -> nested.layout.Layout.struct_align

let find_field t name =
  Array.find_opt (fun f -> String.equal f.rf_name name) t.fields

let struct_size t = t.layout.Layout.size

(** A stable signature of the physical layout: two formats with equal
    signatures have byte-identical native images for equal logical data,
    so the receive path can skip conversion entirely (NDR's best case). *)
let rec layout_signature (t : t) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (match t.abi.Abi.endianness with Endian.Little -> "L" | Endian.Big -> "B");
  Buffer.add_string b (string_of_int t.layout.Layout.size);
  Array.iter
    (fun f ->
      Buffer.add_char b '|';
      Buffer.add_string b f.rf_name;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int f.rf_layout.Layout.offset);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int f.rf_layout.Layout.elem_size);
      Buffer.add_char b ',';
      (match f.rf_dim with
      | Rscalar -> Buffer.add_string b "s"
      | Rfixed n -> Buffer.add_string b (Printf.sprintf "f%d" n)
      | Rvar { control; _ } -> Buffer.add_string b ("v" ^ control));
      Buffer.add_char b ',';
      match f.rf_elem with
      | Rint { signed; _ } -> Buffer.add_string b (if signed then "i" else "u")
      | Rfloat _ -> Buffer.add_string b "d"
      | Rchar -> Buffer.add_string b "c"
      | Rstring -> Buffer.add_string b ("p" ^ string_of_int (Abi.size_of t.abi Abi.Pointer))
      | Rnested nested ->
        Buffer.add_char b '{';
        Buffer.add_string b (layout_signature nested);
        Buffer.add_char b '}')
    t.fields;
  Buffer.contents b

(** Render the format as PBIO IOField rows (compare Figures 5/8/11). *)
let pp_io_fields ppf t =
  Fmt.pf ppf "@[<v2>IOField %sFields[] = {@," t.name;
  List.iteri
    (fun i (d : Ftype.field) ->
      let f = t.fields.(i) in
      (* the paper's size column: sizeof(char* ) for strings, element size
         for everything else (Figures 5/8/11) *)
      let size =
        match f.rf_elem with
        | Rstring -> Abi.size_of t.abi Abi.Pointer
        | Rint _ | Rfloat _ | Rchar | Rnested _ -> f.rf_layout.Layout.elem_size
      in
      Fmt.pf ppf "{ %S, %S, %d, %d },@," f.rf_name
        (Ftype.to_type_string (d.Ftype.f_elem, d.Ftype.f_dim))
        size f.rf_layout.Layout.offset)
    t.decl.Ftype.fields;
  Fmt.pf ppf "{ NULL, NULL, 0, 0 }@]@,};"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type format = t

  type t = {
    abi : Abi.t;
    mutable next_id : int;
    by_name : (string, format) Hashtbl.t;
  }

  let create (abi : Abi.t) : t =
    { abi; next_id = 1; by_name = Hashtbl.create 16 }

  let abi t = t.abi
  let find t name = Hashtbl.find_opt t.by_name name
  let find_exn t name = Hashtbl.find t.by_name name

  (** [register t decl] resolves, lays out and registers a format. Nested
      format references are resolved against [t]'s current contents, as
      with the paper's Catalog. Re-registering a name replaces it (used by
      run-time format upgrades). *)
  let register t (decl : Ftype.t) : format =
    let id = t.next_id in
    let fmt = resolve ~abi:t.abi ~id (find t) decl in
    t.next_id <- id + 1;
    Hashtbl.replace t.by_name fmt.name fmt;
    fmt
end
