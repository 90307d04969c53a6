(** Binding between typed {!Value.t}s and native in-memory byte images.

    [store] realises the paper's *binding* step output: given a registered
    format, it constructs in a simulated process {!Omf_machine.Memory} the
    exact bytes a C program on that ABI would hold — structs with compiler
    padding, strings and dynamic arrays as heap blocks referenced by
    pointers. [load] is the inverse.

    Conventions:
    - A [char[N]] field is presented as a [Value.String] truncated at the
      first NUL (C string-in-buffer semantics); [store] accepts a string of
      length <= N and zero-pads.
    - The control field of dynamic arrays may be omitted from the
      record; it is then filled from the length of the first array it
      counts. Present or not, it must agree with every array it counts
      (several arrays may share one control), or [store] raises
      {!Bind_error} naming the array that disagrees.
    - [Value.String] fields always store as non-null pointers (an empty
      string is a 1-byte NUL block), matching what C senders do.

    - Every array of C [float]/[double] (fixed or dynamic, 4- or 8-byte)
      loads as one [Value.Floats], read by {!Memory.read_floats}; [store]
      accepts it, or an [Array] of [Float]s, for such a field. The rule
      depends only on the format's element type.

    - [load] returns every record as a [Value.Struct] whose [names] is
      the format's own array; [store] binds such a value by position
      (no name is looked up or checked), and any other record, a
      [Value.Record] or a [Struct] under other names, by name.

    Allocation contract: [store] allocates nothing on the OCaml heap. It
    writes straight into the memory's arena: no boxed intermediates,
    option boxes or closures; a [Floats] array moves through
    {!Memory.write_floats}, and an omitted control field's count is
    written from the array's length. [load] allocates exactly the
    {!Value.t} it returns: per record one [values] array (8 B per field
    plus its 8 B header) and the 24 B [Struct] block, the names being
    the format's; a float array in it is one unboxed [floatarray] (8 B
    per element, no box per element). *)

open Omf_machine

exception Bind_error of string

let bind_error fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

(* Binding walks the format's fields. A [Value.Struct] whose names are
   the format's (a value decoded in it) binds by position: field [i]'s
   value is [values.(i)]. Any other record binds by name, looking each
   field up with allocation-free scans (no option boxes, no closures):
   {!Value.lookup} and these. Controls are found by index: the format
   resolved them. *)

let rec has_name names k i =
  i < Array.length names
  && (String.equal (Array.unsafe_get names i) k || has_name names k (i + 1))

let check_name (fmt : Format.t) k =
  if not (has_name fmt.Format.names k 0) then
    bind_error "format %s: value has unknown field %S" fmt.Format.name k

let rec check_bindings fmt = function
  | [] -> ()
  | (k, _) :: rest ->
    check_name fmt k;
    check_bindings fmt rest

let rec check_names fmt names i =
  if i < Array.length names then begin
    check_name fmt (Array.unsafe_get names i);
    check_names fmt names (i + 1)
  end

let rec same_names x y i =
  i = Array.length x
  || (String.equal (Array.unsafe_get x i) (Array.unsafe_get y i)
     && same_names x y (i + 1))

(* [values] binds by position: one value per field, under the format's
   own names ([==] when it was decoded in this very format) *)
let positional (fmt : Format.t) names values =
  let own = fmt.Format.names in
  Array.length values = Array.length own
  && (names == own
     || (Array.length names = Array.length own && same_names names own 0))

(* Field [j]'s value: [values.(j)] when binding by position, its first
   binding in [record] when [values] is empty (raises [Not_found]). *)
let value_at (fmt : Format.t) record values j =
  if Array.length values > 0 then Array.unsafe_get values j
  else Value.lookup fmt.Format.fields.(j).Format.rf_name record

(* The element count of an array value, or -1 when it is not one. *)
let array_length = function
  | Value.Array a -> Array.length a
  | Value.Floats a -> Float.Array.length a
  | _ -> -1

(* Every array control [c] counts, from field [j] on, holds [n]
   elements. A value that is not an array is left to its own field. *)
let rec check_counted (fmt : Format.t) record values c n j =
  if j < Array.length fmt.Format.fields then begin
    let f = fmt.Format.fields.(j) in
    (match f.Format.rf_dim with
    | Format.Rvar { at; _ } when at = c -> (
      match array_length (value_at fmt record values j) with
      | m when m >= 0 && m <> n ->
        bind_error "format %s: control field %S = %d disagrees with %S length %d"
          fmt.Format.name fmt.Format.fields.(c).Format.rf_name n
          f.Format.rf_name m
      | _ | (exception Not_found) -> ())
    | Format.Rvar _ | Format.Rscalar | Format.Rfixed _ -> ());
    check_counted fmt record values c n (j + 1)
  end

(* An omitted field [c] must be a control field: its slot gets the
   length of the first array it counts, written as it is, with no
   [Value.Int] box, and every other array it counts must have that
   length too. *)
let store_count mem (fmt : Format.t) addr record c =
  let f = fmt.Format.fields.(c) in
  let first = f.Format.rf_counts in
  if first < 0 then
    bind_error "format %s: missing field %S" fmt.Format.name f.Format.rf_name;
  let arr_name = fmt.Format.fields.(first).Format.rf_name in
  match Value.lookup arr_name record with
  | v when array_length v >= 0 ->
    check_counted fmt record [||] c (array_length v) (first + 1);
    Memory.write_count mem
      (addr + f.Format.rf_layout.Layout.offset)
      ~size:f.Format.rf_layout.Layout.elem_size (array_length v)
  | v ->
    bind_error "format %s: field %S must be an array, got %s" fmt.Format.name
      arr_name (Value.to_string v)
  | exception Not_found ->
    bind_error "format %s: missing field %S" fmt.Format.name arr_name

let rec store_into (mem : Memory.t) (fmt : Format.t) (addr : int)
    (record : Value.t) : unit =
  match record with
  | Value.Struct { names; values } when positional fmt names values ->
    store_fields mem fmt addr record values 0
  | Value.Struct { names; _ } ->
    check_names fmt names 0;
    store_fields mem fmt addr record [||] 0
  | Value.Record fields ->
    check_bindings fmt fields;
    store_fields mem fmt addr record [||] 0
  | v ->
    bind_error "format %s: expected a record, got %s" fmt.Format.name
      (Value.to_string v)

(* field [i] on: by position from [values], or by name when it is empty *)
and store_fields mem fmt addr record values i =
  if i < Array.length fmt.Format.fields then begin
    let f = fmt.Format.fields.(i) in
    (match value_at fmt record values i with
    | v ->
      if f.Format.rf_counts >= 0 then
        check_counted fmt record values i
          (Int64.to_int (Value.to_int64 v))
          f.Format.rf_counts;
      store_field mem fmt addr f v
    | exception Not_found -> store_count mem fmt addr record i);
    store_fields mem fmt addr record values (i + 1)
  end

and store_field mem (fmt : Format.t) addr (f : Format.rfield) v =
  let slot = addr + f.Format.rf_layout.Layout.offset in
  let elem_size = f.Format.rf_layout.Layout.elem_size in
  match f.Format.rf_dim with
  | Format.Rscalar -> store_scalar mem fmt f slot v
  | Format.Rfixed n -> (
    match (f.Format.rf_elem, v) with
    | Format.Rchar, Value.String s ->
      if String.length s > n then
        bind_error "format %s, field %S: string %S exceeds char[%d]"
          fmt.Format.name f.Format.rf_name s n;
      Memory.write_string mem slot s
      (* remaining bytes stay zero: Memory.alloc zero-fills *)
    | _, (Value.Array _ | Value.Floats _) when array_length v <> n ->
      bind_error "format %s, field %S: expected %d elements, got %d"
        fmt.Format.name f.Format.rf_name n (array_length v)
    | _, Value.Array a -> store_elements mem fmt f slot elem_size a
    | Format.Rfloat _, Value.Floats a ->
      Memory.write_floats mem slot ~size:elem_size a
    | _, v -> not_an_array fmt f v)
  | Format.Rvar _ -> (
    match (f.Format.rf_elem, v) with
    | _, (Value.Array _ | Value.Floats _) when array_length v = 0 ->
      Memory.write_pointer mem slot Memory.null
    | _, Value.Array a ->
      let block = alloc_elements mem f elem_size (Array.length a) in
      store_elements mem fmt f block elem_size a;
      Memory.write_pointer mem slot block
    | Format.Rfloat _, Value.Floats a ->
      let block = alloc_elements mem f elem_size (Float.Array.length a) in
      Memory.write_floats mem block ~size:elem_size a;
      Memory.write_pointer mem slot block
    | _, v -> not_an_array fmt f v)

and not_an_array (fmt : Format.t) (f : Format.rfield) = function
  | Value.Floats _ ->
    bind_error "format %s, field %S: floats given for non-float elements"
      fmt.Format.name f.Format.rf_name
  | v ->
    bind_error "format %s, field %S: expected an array, got %s"
      fmt.Format.name f.Format.rf_name (Value.to_string v)

and alloc_elements mem f elem_size n =
  let align = Format.elem_align (Memory.abi mem) f.Format.rf_elem in
  Memory.alloc mem ~align (n * elem_size)

and store_elements mem fmt f slot elem_size a =
  for i = 0 to Array.length a - 1 do
    store_scalar mem fmt f (slot + (i * elem_size)) (Array.unsafe_get a i)
  done

and store_scalar mem (fmt : Format.t) (f : Format.rfield) slot v =
  let size = f.Format.rf_layout.Layout.elem_size in
  match f.Format.rf_elem with
  | Format.Rint _ -> Memory.write_int mem slot ~size (Value.to_int64 v)
  | Format.Rfloat _ -> Memory.write_float mem slot ~size (Value.to_float_exn v)
  | Format.Rchar -> (
    match v with
    | Value.Char c -> Memory.write_char mem slot c
    | Value.Int n | Value.Uint n -> Memory.write_uint mem slot ~size:1 n
    | v ->
      bind_error "format %s, field %S: expected a char, got %s"
        fmt.Format.name f.Format.rf_name (Value.to_string v))
  | Format.Rstring ->
    let s = Value.to_string_exn v in
    Memory.write_pointer mem slot (Memory.alloc_cstring mem s)
  | Format.Rnested nested -> store_into mem nested slot v

(** [store mem fmt record] allocates a struct block and writes [record]
    into it, returning its simulated address. *)
let store (mem : Memory.t) (fmt : Format.t) (record : Value.t) : int =
  let layout = fmt.Format.layout in
  let addr =
    Memory.alloc mem ~align:layout.Layout.struct_align (max layout.Layout.size 1)
  in
  store_into mem fmt addr record;
  addr

let rec load_from (mem : Memory.t) (fmt : Format.t) (addr : int) : Value.t =
  let names = fmt.Format.names in
  let values = Array.make (Array.length names) (Value.Int 0L) in
  for i = 0 to Array.length values - 1 do
    Array.unsafe_set values i (load_field mem fmt addr fmt.Format.fields.(i))
  done;
  Value.Struct { names; values }

and load_field mem (fmt : Format.t) addr (f : Format.rfield) : Value.t =
  let slot = addr + f.Format.rf_layout.Layout.offset in
  let elem_size = f.Format.rf_layout.Layout.elem_size in
  match f.Format.rf_dim with
  | Format.Rscalar -> load_scalar mem f slot
  | Format.Rfixed n -> (
    match f.Format.rf_elem with
    | Format.Rchar ->
      (* char[N]: C string-in-buffer semantics, stop at first NUL *)
      Value.String (Memory.read_chars mem slot n)
    | _ -> load_array mem f slot elem_size n)
  | Format.Rvar { at; _ } ->
    let cf = fmt.Format.fields.(at) in
    let count =
      Memory.read_count mem
        (addr + cf.Format.rf_layout.Layout.offset)
        ~size:cf.Format.rf_layout.Layout.elem_size
    in
    (* an empty array's pointer is never dereferenced *)
    let block = if count = 0 then Memory.null else Memory.read_pointer mem slot in
    load_array mem f block elem_size count

(* [n] elements at [slot]: floats as one unboxed array, anything else
   element by element *)
and load_array mem f slot elem_size n =
  match f.Format.rf_elem with
  | Format.Rfloat _ when n = 0 -> Value.Floats (Float.Array.create 0)
  | Format.Rfloat _ ->
    Value.Floats (Memory.read_floats mem slot ~size:elem_size ~count:n)
  | _ when n = 0 -> Value.Array [||]
  | _ -> Value.Array (load_elements mem f slot elem_size n)

and load_elements mem f slot elem_size n =
  let a = Array.make n (Value.Int 0L) in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (load_scalar mem f (slot + (i * elem_size)))
  done;
  a

and load_scalar mem (f : Format.rfield) slot : Value.t =
  let size = f.Format.rf_layout.Layout.elem_size in
  match f.Format.rf_elem with
  | Format.Rint { signed = true; _ } ->
    Value.Int (Memory.read_int mem slot ~size)
  | Format.Rint { signed = false; _ } ->
    Value.Uint (Memory.read_uint mem slot ~size)
  | Format.Rfloat _ -> Value.Float (Memory.read_float mem slot ~size)
  | Format.Rchar -> Value.Char (Memory.read_char mem slot)
  | Format.Rstring ->
    let ptr = Memory.read_pointer mem slot in
    Value.String (if ptr = Memory.null then "" else Memory.read_cstring mem ptr)
  | Format.Rnested nested -> load_from mem nested slot

(** [load mem fmt addr] reads the struct at [addr] back into a
    positional record, in declaration field order (control fields
    included). *)
let load = load_from
