(* LZ block codec — see compress.mli for the format. Pure OCaml, no
   dependencies beyond Slice; hot paths index with unsafe_get after an
   up-front bounds check of the whole window. *)

module Slice = Omf_util.Slice
module Decode = Omf_util.Decode

let err at reason = Decode.fail "lz" at reason

let tag_stored = '\x00'
let tag_lz = '\x01'

let min_match = 4
let max_dist = 65535
let hash_bits = 14
let hash_size = 1 lsl hash_bits

(* Inputs shorter than this never win against stored-form framing. *)
let min_compress_len = 16

(* Refuse to allocate absurd outputs for a corrupt header. *)
let max_block_len = 1 lsl 30

(* Output bytes one token-stream byte can yield at most: a run byte adds
   255 to a length, and every other byte yields fewer. The header's
   length is checked against it before the output is allocated. *)
let max_expansion = 255

let bound n = n + 1

let is_lz b = Bytes.length b > 0 && Bytes.get b 0 = tag_lz

(* -- encoder ------------------------------------------------------- *)

(* the four bytes at [i] as a little-endian u32, hashed; one unboxed
   load, no closure, so the match finder allocates nothing per position *)
let hash4 src i =
  let v = Int32.to_int (Bytes.get_int32_le src i) land 0xFFFF_FFFF in
  (v * 0x9E3779B1) lsr (32 - hash_bits) land (hash_size - 1)

(* Longest common run of [a] (at cand) and [b] (at cur), both relative
   to [base], bounded by the end of the window. Overlap (cand + k
   reaching past cur) is fine: by the time the decoder copies byte k,
   bytes before it are already written. *)
let match_len src base cand cur len =
  let k = ref 0 in
  while
    cur + !k < len
    && Bytes.unsafe_get src (base + cand + !k)
       = Bytes.unsafe_get src (base + cur + !k)
  do
    incr k
  done;
  !k

exception Bail
(* Token stream reached the stored-form size: stop and fall back. *)

(* the stored form of [len] bytes of [src] at [pos], written at [off] *)
let store_into src pos len dst off =
  Bytes.set dst off tag_stored;
  Bytes.blit src pos dst (off + 1) len;
  len + 1

(* Match-finder workspace, reusable across calls so the hot path never
   allocates or re-initializes the chain arrays. Entries are coded as
   [base + position]: each call claims a fresh [base] past every value
   any earlier call could have stored, so a stale entry — or a fresh
   zero — decodes to a negative position and reads as empty, with no
   clearing between blocks. Both tables start empty and are paid for by
   the blocks compressed: [head] on the first LZ compress, and [prev]
   as a ring of the next power of two that fits the largest block so
   far (at least 64 slots, at most the 64 KiB match window). A block no
   longer than the ring never reuses a slot; in a longer one, a slot
   reused by a position one window later decodes to an out-of-range
   distance and is cut by the [max_dist] check, so the blocks are the
   same whatever the ring's size. The block being written is a cursor
   in here too, so the encoder's helpers are plain functions and a call
   allocates nothing once the tables fit. *)
type scratch = {
  mutable head : int array;  (* hash -> coded newest position *)
  mutable prev : int array;
      (* coded chain, indexed by position land (length - 1) *)
  mutable base : int;  (* strictly positive, grows by [len] per call *)
  mutable out : Bytes.t;
      (* where {!compress_sub} builds a block before copying out exactly
         its bytes; only grows *)
  mutable dst : Bytes.t;  (* token bytes go to [dst] at [start + opos] *)
  mutable start : int;
  mutable opos : int;
  mutable budget : int;  (* at most this many token bytes *)
}

let scratch () =
  { head = [||]
  ; prev = [||]
  ; base = 1
  ; out = Bytes.empty
  ; dst = Bytes.empty
  ; start = 0
  ; opos = 0
  ; budget = 0 }

let min_ring = 64

(* the head table, and a ring that fits a block of [len] bytes *)
let reserve s len =
  if Array.length s.head = 0 then s.head <- Array.make hash_size 0;
  let want = min len (max_dist + 1) in
  if Array.length s.prev < want then begin
    let n = ref min_ring in
    while !n < want do
      n := 2 * !n
    done;
    s.prev <- Array.make !n 0
  end

let put s c =
  if s.opos >= s.budget then raise Bail;
  Bytes.unsafe_set s.dst (s.start + s.opos) c;
  s.opos <- s.opos + 1

let put_byte s v = put s (Char.unsafe_chr (v land 0xff))

(* a 255-continuation extension *)
let rec put_run s v =
  if v >= 255 then begin
    put s '\xff';
    put_run s (v - 255)
  end
  else put_byte s v

let put_literals s src from llen =
  if s.opos + llen > s.budget then raise Bail;
  Bytes.blit src from s.dst (s.start + s.opos) llen;
  s.opos <- s.opos + llen

(* one sequence: [llen] literals at [from], then a match of [mlen] bytes
   [dist] back ([mlen] = 0: the block's closing literal run) *)
let emit_seq s src from llen mlen dist =
  let ln = if llen >= 15 then 15 else llen in
  let mn = if mlen = 0 then 0 else min (mlen - min_match) 15 in
  put_byte s ((ln lsl 4) lor mn);
  if ln = 15 then put_run s (llen - 15);
  put_literals s src from llen;
  if mlen > 0 then begin
    put_byte s (dist lsr 8);
    put_byte s dist;
    if mn = 15 then put_run s (mlen - min_match - 15)
  end

let insert s src pos base i =
  let h = hash4 src (pos + i) in
  Array.unsafe_set s.prev
    (i land (Array.length s.prev - 1))
    (Array.unsafe_get s.head h);
  Array.unsafe_set s.head h (base + i)

let compress_into ?scratch:ws src ~pos ~len dst ~off =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg
      (Printf.sprintf "Compress.compress_into: window %d+%d of %d" pos len
         (Bytes.length src));
  if off < 0 || off + bound len > Bytes.length dst then
    invalid_arg
      (Printf.sprintf "Compress.compress_into: %d bytes at %d of %d" (bound len)
         off (Bytes.length dst));
  if len < min_compress_len then store_into src pos len dst off
  else begin
    let s = match ws with Some s -> s | None -> scratch () in
    (* the token stream goes straight after the 5-byte header; its
       budget makes the block undercut the stored form's len + 1 *)
    s.dst <- dst;
    s.start <- off + 5;
    s.opos <- 0;
    s.budget <- len - 5;
    let base = s.base in
    s.base <- base + len;
    reserve s len;
    let head = s.head and prev = s.prev in
    let mask = Array.length prev - 1 in
    try
      let i = ref 0 in
      let lit_start = ref 0 in
      let misses = ref 0 in
      let hlimit = len - min_match in
      while !i <= hlimit do
        let cur = !i in
        let h = hash4 src (pos + cur) in
        let best_len = ref 0 in
        let best_dist = ref 0 in
        let cand = ref (head.(h) - base) in
        let tries = ref 32 in
        while !cand >= 0 && !tries > 0 do
          if cur - !cand > max_dist then cand := -1
          else begin
            (* cheap reject: a longer match must extend past best_len *)
            if
              cur + !best_len < len
              && ( !best_len = 0
                 || Bytes.unsafe_get src (pos + !cand + !best_len)
                    = Bytes.unsafe_get src (pos + cur + !best_len) )
            then begin
              let l = match_len src pos !cand cur len in
              if l > !best_len then begin
                best_len := l;
                best_dist := cur - !cand
              end
            end;
            cand := Array.unsafe_get prev (!cand land mask) - base;
            decr tries
          end
        done;
        if !best_len >= min_match then begin
          emit_seq s src (pos + !lit_start) (cur - !lit_start) !best_len
            !best_dist;
          (* index the covered positions so later matches can reach
             back into this run *)
          let stop = min (cur + !best_len) (hlimit + 1) in
          for j = cur to stop - 1 do
            insert s src pos base j
          done;
          i := cur + !best_len;
          lit_start := !i;
          misses := 0
        end
        else begin
          insert s src pos base cur;
          incr misses;
          (* skip acceleration: on long incompressible runs, stride
             grows so worst-case encode stays near memcpy speed *)
          i := cur + 1 + (!misses lsr 6)
        end
      done;
      let tail = len - !lit_start in
      if tail > 0 then emit_seq s src (pos + !lit_start) tail 0 0;
      Bytes.set dst off tag_lz;
      Bytes.set_int32_be dst (off + 1) (Int32.of_int len);
      5 + s.opos
    with Bail -> store_into src pos len dst off
  end

let compress_sub ?scratch src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg
      (Printf.sprintf "Compress.compress_sub: window %d+%d of %d" pos len
         (Bytes.length src));
  let out =
    match scratch with
    | None -> Bytes.create (bound len)
    | Some s ->
      if Bytes.length s.out < bound len then
        s.out <- Bytes.create (max (bound len) (2 * Bytes.length s.out));
      s.out
  in
  Bytes.sub out 0 (compress_into ?scratch src ~pos ~len out ~off:0)


let compress ?scratch src =
  compress_sub ?scratch src ~pos:0 ~len:(Bytes.length src)

let compress_slice ?scratch (s : Slice.t) =
  compress_sub ?scratch s.buf ~pos:s.off ~len:s.len

(* -- decoder ------------------------------------------------------- *)

(* one past the end of the 255-continuation run at [i]: its last byte is
   the first one below 255 *)
let rec run_end src pos i iend =
  if i >= iend then err (i - pos) Truncated
  else if Bytes.unsafe_get src i = '\xff' then run_end src pos (i + 1) iend
  else i + 1

(* 15 plus the bytes of the run from [i] to [e] *)
let run_value src i e = 15 + (255 * (e - 1 - i)) + Char.code (Bytes.unsafe_get src (e - 1))

(* [into n] once the block's length [n] is known and checked: the
   buffer the block decodes into *)
let output into n =
  let out = into n in
  if Bytes.length out <> n then
    invalid_arg
      (Printf.sprintf "Compress.decompress_sub: into %d gave %d bytes" n
         (Bytes.length out));
  out

let decompress_sub ?(into = Bytes.create) src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg
      (Printf.sprintf "Compress.decompress_sub: window %d+%d of %d" pos len
         (Bytes.length src));
  if len < 1 then err 0 Truncated;
  match Bytes.get src pos with
  | c when c = tag_stored ->
    let out = output into (len - 1) in
    Bytes.blit src (pos + 1) out 0 (len - 1);
    out
  | c when c = tag_lz ->
    if len < 5 then err len Truncated;
    let raw_len = Int32.to_int (Bytes.get_int32_be src (pos + 1)) land 0xFFFF_FFFF in
    if raw_len > max_block_len || raw_len > max_expansion * (len - 5) then
      err 1 Too_long;
    let out = output into raw_len in
    let iend = pos + len in
    let ip = ref (pos + 5) in
    let op = ref 0 in
    while !ip < iend do
      let token = Char.code (Bytes.unsafe_get src !ip) in
      incr ip;
      let llen =
        let l = token lsr 4 in
        if l < 15 then l
        else begin
          let e = run_end src pos !ip iend in
          let v = run_value src !ip e in
          ip := e;
          v
        end
      in
      if llen > 0 then begin
        if !ip + llen > iend then err (!ip - pos) Truncated;
        if !op + llen > raw_len then err (!ip - pos) Inconsistent;
        Bytes.blit src !ip out !op llen;
        ip := !ip + llen;
        op := !op + llen
      end;
      if !ip < iend then begin
        if !ip + 2 > iend then err (!ip - pos) Truncated;
        let dist = Bytes.get_uint16_be src !ip in
        ip := !ip + 2;
        let mlen =
          let m = token land 0xf in
          min_match
          +
          if m < 15 then m
          else begin
            let e = run_end src pos !ip iend in
            let v = run_value src !ip e in
            ip := e;
            v
          end
        in
        if dist = 0 || dist > !op || !op + mlen > raw_len then
          err (!ip - pos) Inconsistent;
        (* byte-wise copy: correct for overlapping matches (dist < mlen) *)
        let from = ref (!op - dist) in
        for _ = 1 to mlen do
          Bytes.unsafe_set out !op (Bytes.unsafe_get out !from);
          incr op;
          incr from
        done
      end
    done;
    if !op <> raw_len then err len Inconsistent;
    out
  | _ -> err 0 Bad_tag

let decompress src = decompress_sub src ~pos:0 ~len:(Bytes.length src)

