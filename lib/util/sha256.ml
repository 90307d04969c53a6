(** SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), pure OCaml.

    Small and dependency-free on purpose: the relay's authenticated
    frame mode needs a keyed MAC and the container ships no crypto
    library. The schedule and state are unboxed native ints, so hashing
    allocates nothing per block. Not constant-time in the digest itself
    (inputs are not secret); {!Omf_transport.Macframe} compares MAC tags
    in constant time itself. *)

(* round constants: first 32 bits of the fractional parts of the cube
   roots of the first 64 primes *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b
   ; 0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01
   ; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7
   ; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc
   ; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152
   ; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147
   ; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc
   ; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85
   ; 0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819
   ; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08
   ; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f
   ; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208
   ; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* 32-bit words live in native ints (63 bits wide on the 64-bit hosts
   this code targets), masked back to 32 bits after additions, so the
   schedule and the state never box: hashing allocates nothing per
   block. *)
let mask = 0xFFFF_FFFF

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

type ctx = {
  h : int array;  (** running hash state, 8 words *)
  block : Bytes.t;  (** 64-byte working block *)
  mutable fill : int;  (** bytes currently in [block] *)
  mutable total : int;  (** message length so far, bytes *)
  w : int array;  (** message schedule scratch, 64 words *)
}

let initial_state =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f
   ; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () : ctx =
  { h = Array.copy initial_state
  ; block = Bytes.create 64; fill = 0; total = 0; w = Array.make 64 0 }

let compress (c : ctx) (blk : Bytes.t) (off : int) : unit =
  let w = c.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be blk (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let h = c.h in
  let a = ref h.(0) and b = ref h.(1) and cc = ref h.(2)
  and d = ref h.(3) and e = ref h.(4) and f = ref h.(5)
  and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + k.(i) + w.(i) in
    let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
    let maj = (a' land !b) lxor (a' land !cc) lxor (!b land !cc) in
    let t2 = s0 + maj in
    hh := !g; g := !f; f := e'; e := (!d + t1) land mask;
    d := !cc; cc := !b; b := a'; a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !cc) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let feed_bytes (c : ctx) (data : Bytes.t) (off : int) (len : int) : unit =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Sha256.feed";
  c.total <- c.total + len;
  let off = ref off and len = ref len in
  (* top up a partial block first *)
  if c.fill > 0 then begin
    let take = min !len (64 - c.fill) in
    Bytes.blit data !off c.block c.fill take;
    c.fill <- c.fill + take;
    off := !off + take;
    len := !len - take;
    if c.fill = 64 then begin
      compress c c.block 0;
      c.fill <- 0
    end
  end;
  while !len >= 64 do
    compress c data !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit data !off c.block c.fill !len;
    c.fill <- c.fill + !len
  end

let feed (c : ctx) (s : string) : unit =
  feed_bytes c (Bytes.unsafe_of_string s) 0 (String.length s)

(* the 32-byte digest of everything fed, written at [off]; allocates
   nothing *)
let finish_into (c : ctx) (out : Bytes.t) (off : int) : unit =
  if off < 0 || off + 32 > Bytes.length out then invalid_arg "Sha256.finish_into";
  (* pad: 0x80, zeros to 56 mod 64, then the 64-bit bit length *)
  Bytes.set c.block c.fill '\x80';
  c.fill <- c.fill + 1;
  if c.fill > 56 then begin
    Bytes.fill c.block c.fill (64 - c.fill) '\x00';
    compress c c.block 0;
    c.fill <- 0
  end;
  Bytes.fill c.block c.fill (56 - c.fill) '\x00';
  Bytes.set_int64_be c.block 56 (Int64.of_int (c.total * 8));
  compress c c.block 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (off + (4 * i)) (Int32.of_int c.h.(i))
  done

let finish (c : ctx) : string =
  let out = Bytes.create 32 in
  finish_into c out 0;
  Bytes.unsafe_to_string out

let digest (s : string) : string =
  let c = init () in
  feed c s;
  finish c

let digest_bytes (b : Bytes.t) (off : int) (len : int) : string =
  let c = init () in
  feed_bytes c b off len;
  finish c

let hex (s : string) : string =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun ch -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code ch))) s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* HMAC (RFC 2104)                                                      *)
(* ------------------------------------------------------------------ *)

let block_size = 64

(* The key's two padded blocks, [key xor ipad] and [key xor opad], each
   hashed once: every HMAC under the key starts from these midstates
   instead of hashing the pads again. *)
type hmac_key = { inner : int array; outer : int array }

(* the key, hashed first when longer than a block, zero-padded to one
   block and xored with each pad byte, then compressed from the initial
   state in [c] *)
let midstates (c : ctx) (key : string) : hmac_key =
  let key = if String.length key > block_size then digest key else key in
  let mid fill =
    Bytes.fill c.block 0 block_size fill;
    String.iteri
      (fun i ch ->
        Bytes.set c.block i (Char.chr (Char.code ch lxor Char.code fill)))
      key;
    Array.blit initial_state 0 c.h 0 8;
    compress c c.block 0;
    Array.copy c.h
  in
  let inner = mid '\x36' in
  { inner; outer = mid '\x5c' }

let hmac_key (key : string) : hmac_key = midstates (init ()) key

(* [c] as if it had just hashed one pad block *)
let resume (c : ctx) (mid : int array) : unit =
  Array.blit mid 0 c.h 0 8;
  c.fill <- 0;
  c.total <- block_size

let hmac_start (k : hmac_key) (c : ctx) : unit = resume c k.inner

let hmac_finish_into (k : hmac_key) (c : ctx) (out : Bytes.t) (off : int) :
    unit =
  (* the inner digest lands in the block buffer, where it is the whole
     outer message after the opad block *)
  finish_into c c.block 0;
  resume c k.outer;
  c.fill <- 32;
  c.total <- block_size + 32;
  finish_into c out off

let hmac ~(key : string) (msg : string) : string =
  let c = init () in
  let k = midstates c key in
  hmac_start k c;
  feed c msg;
  let out = Bytes.create 32 in
  hmac_finish_into k c out 0;
  Bytes.unsafe_to_string out
