(** Tiny string helpers for tests (avoids a Str dependency). *)

(** [replace ~sub ~by s] replaces every literal occurrence of [sub]. *)
let replace ~sub ~by s =
  let n = String.length sub in
  if n = 0 then invalid_arg "Strings.replace: empty pattern";
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.equal (String.sub s i n) sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(** [contains s sub] is true when [sub] occurs literally in [s]. *)
let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

(** Random printable ASCII string of length [len], drawn from [r]. *)
let printable r len =
  String.init len (fun _ -> Char.chr (32 + Omf_util.Prng.int r 95))

(** Random lowercase identifier of length [len] (first char alphabetic;
    then alphanumerics and underscores), drawn from [r]. *)
let ident r len =
  String.init (max 1 len) (fun i ->
      if i = 0 then Char.chr (Char.code 'a' + Omf_util.Prng.int r 26)
      else
        let k = Omf_util.Prng.int r 37 in
        if k < 26 then Char.chr (Char.code 'a' + k)
        else if k < 36 then Char.chr (Char.code '0' + (k - 26))
        else '_')
