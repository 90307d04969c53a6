(* Reflected CRC-32, polynomial 0xEDB88320 (IEEE / zlib). The table is
   built once at module init; lookups stay in the low 32 bits so the
   result fits a native int everywhere. *)

let mask = 0xFFFFFFFF

let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c land mask
  done;
  t

let digest (b : Bytes.t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest";
  let c = ref mask in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    c := table.((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor mask land mask

