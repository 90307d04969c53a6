type t = { buf : Bytes.t; off : int; len : int }

let make (buf : Bytes.t) (off : int) (len : int) : t =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Slice.make: window [%d,%d) escapes buffer of %d" off
         (off + len) (Bytes.length buf));
  { buf; off; len }

let of_bytes (buf : Bytes.t) : t = { buf; off = 0; len = Bytes.length buf }

let length (s : t) = s.len

let get (s : t) (i : int) : char =
  if i < 0 || i >= s.len then invalid_arg "Slice.get: out of bounds";
  Bytes.unsafe_get s.buf (s.off + i)

let sub (s : t) (off : int) (len : int) : t =
  if off < 0 || len < 0 || off + len > s.len then
    invalid_arg
      (Printf.sprintf "Slice.sub: window [%d,%d) escapes slice of %d" off
         (off + len) s.len);
  { buf = s.buf; off = s.off + off; len }

let blit (s : t) (dst : Bytes.t) (dpos : int) : unit =
  Bytes.blit s.buf s.off dst dpos s.len

let to_bytes (s : t) : Bytes.t = Bytes.sub s.buf s.off s.len
let to_string (s : t) : string = Bytes.sub_string s.buf s.off s.len

let equal_bytes (s : t) (b : Bytes.t) : bool =
  s.len = Bytes.length b
  &&
  let rec go i = i >= s.len || (get s i = Bytes.get b i && go (i + 1)) in
  go 0
