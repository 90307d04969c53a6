(** Application-level typed values: the OCaml face of the C data that a
    simulated process keeps in its {!Omf_machine.Memory}. A value is bound
    to a message format (see {!Native}) to produce the native byte image
    that NDR puts on the wire. *)

type t =
  | Int of int64  (** signed integer of any C width *)
  | Uint of int64  (** unsigned integer; bit pattern in an [int64] *)
  | Float of float
  | Char of char
  | String of string
  | Array of t array
  | Floats of floatarray
      (** an array of floats, unboxed: what {!Native.load} returns for
          every C [float]/[double] array; equal to, and printed as, the
          [Array] of the same [Float]s *)
  | Record of (string * t) list
  | Struct of { names : string array; values : t array }
      (** a record held positionally: what the decoders return, with
          [names] shared by every value of one format; equal to, and
          printed as, the [Record] of the same bindings *)

(* NaN-safe bit equality: round-trips must preserve bit patterns. *)
let[@inline] same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let floats_equal x y =
  let n = Float.Array.length x in
  n = Float.Array.length y
  &&
  let i = ref 0 in
  while
    !i < n
    && same_bits (Float.Array.unsafe_get x !i) (Float.Array.unsafe_get y !i)
  do
    incr i
  done;
  !i = n

(* a [Floats] against the boxed array it stands for *)
let floats_equal_boxed x y =
  let n = Float.Array.length x in
  n = Array.length y
  &&
  let i = ref 0 in
  while
    !i < n
    && (match Array.unsafe_get y !i with
       | Float f -> same_bits (Float.Array.unsafe_get x !i) f
       | _ -> false)
  do
    incr i
  done;
  !i = n

let[@inline] same_name x y = x == y || String.equal x y

let rec equal a b =
  match (a, b) with
  | Int x, Int y | Uint x, Uint y -> Int64.equal x y
  | Float x, Float y -> same_bits x y
  | Char x, Char y -> Char.equal x y
  | String x, String y -> String.equal x y
  | Array x, Array y -> Array.length x = Array.length y && arrays_equal x y 0
  | Floats x, Floats y -> floats_equal x y
  | Floats x, Array y | Array y, Floats x -> floats_equal_boxed x y
  | Record x, Record y -> records_equal x y
  | Struct x, Struct y -> structs_equal x.names x.values y.names y.values
  | Record l, Struct s | Struct s, Record l ->
    let n = List.length l in
    Array.length s.names = n && Array.length s.values = n
    && bindings_equal s.names s.values 0 l
  | _ -> false

(* element by element from [i], without a closure *)
and arrays_equal x y i =
  i = Array.length x
  || (equal (Array.unsafe_get x i) (Array.unsafe_get y i)
     && arrays_equal x y (i + 1))

and records_equal x y =
  match (x, y) with
  | [], [] -> true
  | (ka, va) :: x, (kb, vb) :: y ->
    String.equal ka kb && equal va vb && records_equal x y
  | _ -> false

and structs_equal xn xv yn yv =
  Array.length xv = Array.length yv
  && (xn == yn || (Array.length xn = Array.length yn && names_equal xn yn 0))
  && arrays_equal xv yv 0

and names_equal x y i =
  i = Array.length x
  || (same_name (Array.unsafe_get x i) (Array.unsafe_get y i)
     && names_equal x y (i + 1))

(* the bindings of a [Struct] from [i] against a binding list *)
and bindings_equal names values i = function
  | [] -> true
  | (k, v) :: rest ->
    same_name (Array.unsafe_get names i) k
    && equal (Array.unsafe_get values i) v
    && bindings_equal names values (i + 1) rest

let rec pp ppf = function
  | Int v -> Fmt.pf ppf "%Ld" v
  | Uint v -> Fmt.pf ppf "%Lu" v
  | Float v -> Fmt.pf ppf "%h" v
  | Char c -> Fmt.pf ppf "%C" c
  | String s -> Fmt.pf ppf "%S" s
  | Array a ->
    Fmt.pf ppf "[|%a|]" Fmt.(array ~sep:(any "; ") pp) a
  | Floats a ->
    let pp_float ppf v = Fmt.pf ppf "%h" v in
    Fmt.pf ppf "[|%a|]" Fmt.(iter ~sep:(any "; ") Float.Array.iter pp_float) a
  | Record fields ->
    Fmt.string ppf "{ ";
    List.iteri (fun i (k, v) -> pp_binding ppf i k v) fields;
    Fmt.string ppf " }"
  | Struct { names; values } ->
    Fmt.string ppf "{ ";
    Array.iteri (fun i k -> pp_binding ppf i k values.(i)) names;
    Fmt.string ppf " }"

and pp_binding ppf i k v =
  if i > 0 then Fmt.string ppf "; ";
  Fmt.pf ppf "%s = %a" k pp v

let to_string v = Fmt.str "%a" pp v

(* ---- record helpers ---- *)

let rec assoc name = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if String.equal k name then v else assoc name rest

(* the position of [name] in [names] from [i], or -1 *)
let rec index names name i =
  if i = Array.length names then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else index names name (i + 1)

let lookup name = function
  | Record fields -> assoc name fields
  | Struct { names; values } ->
    let i = index names name 0 in
    if i < 0 then raise Not_found else values.(i)
  | _ -> raise Not_found

let field record name =
  match lookup name record with v -> Some v | exception Not_found -> None

let field_exn record name =
  match lookup name record with
  | v -> v
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Value.field_exn: no field %S" name)

(* [fields] with every binding of [name] bound to [v]: only the list
   cells up to the last replaced binding are rebuilt. Raises [Not_found]
   when no binding is named [name]. *)
let rec replace name v = function
  | [] -> raise Not_found
  | ((k, _) as b) :: rest ->
    if String.equal k name then
      (k, v) :: (match replace name v rest with r -> r | exception Not_found -> rest)
    else b :: replace name v rest

(** [set_field record name v] replaces every binding of [name], or
    appends one when there is none. *)
let set_field record name v =
  match record with
  | Record fields -> (
    match replace name v fields with
    | fields -> Record fields
    | exception Not_found -> Record (fields @ [ (name, v) ]))
  | Struct { names; values } ->
    let i = index names name 0 in
    if i >= 0 then begin
      let values = Array.copy values in
      values.(i) <- v;
      Struct { names; values }
    end
    else
      Record
        (List.init (Array.length names) (fun i -> (names.(i), values.(i)))
        @ [ (name, v) ])
  | _ -> invalid_arg "Value.set_field: not a record"

(* ---- coercion helpers used by codecs ---- *)

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let to_int64 = function
  | Int v | Uint v -> v
  | Char c -> Int64.of_int (Char.code c)
  | v -> type_error "expected an integer, got %s" (to_string v)

let to_float_exn = function
  | Float f -> f
  | Int v | Uint v -> Int64.to_float v
  | v -> type_error "expected a float, got %s" (to_string v)

let to_string_exn = function
  | String s -> s
  | v -> type_error "expected a string, got %s" (to_string v)

let to_array_exn = function
  | Array a -> a
  | Floats a ->
    Array.init (Float.Array.length a) (fun i -> Float (Float.Array.get a i))
  | v -> type_error "expected an array, got %s" (to_string v)

