(* ------------------------------------------------------------------ *)
(* Ids                                                                  *)
(* ------------------------------------------------------------------ *)

(* splitmix64: one multiply-shift-xor chain per draw. Good enough for
   trace ids (collision resistance, not security) and for the sampling
   coin; cheap enough that it never shows up in a profile. *)
let splitmix64 (state : int64) : int64 * int64 =
  let open Int64 in
  let s = add state 0x9E3779B97F4A7C15L in
  let z = s in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, logxor z (shift_right_logical z 31))

(* global id source: ctx creation is per publish session (rare) and may
   happen from any thread, so a mutex is fine here *)
let id_mu = Mutex.create ()

let id_state =
  ref
    (Int64.logxor
       (Int64.of_float (Unix.gettimeofday () *. 1e6))
       (Int64.shift_left (Int64.of_int (Unix.getpid ())) 40))

let fresh_id () : int64 =
  Mutex.lock id_mu;
  let s, z = splitmix64 !id_state in
  id_state := s;
  Mutex.unlock id_mu;
  (* never 0: 0 reads as "no id" in exports *)
  if Int64.equal z 0L then 1L else z

let id_to_string (id : int64) : string = Printf.sprintf "%016Lx" id

(* ------------------------------------------------------------------ *)
(* Context                                                              *)
(* ------------------------------------------------------------------ *)

type ctx = { trace_id : int64; span_id : int64; sampled : bool }

let make ~sampled () : ctx =
  { trace_id = fresh_id (); span_id = fresh_id (); sampled }

let to_string (c : ctx) : string =
  Printf.sprintf "%016Lx-%016Lx-%02x" c.trace_id c.span_id
    (if c.sampled then 1 else 0)

let hex64 (s : string) (off : int) : int64 option =
  let rec go i acc =
    if i = 16 then Some acc
    else
      match s.[off + i] with
      | '0' .. '9' as ch ->
        go (i + 1)
          (Int64.logor (Int64.shift_left acc 4)
             (Int64.of_int (Char.code ch - Char.code '0')))
      | 'a' .. 'f' as ch ->
        go (i + 1)
          (Int64.logor (Int64.shift_left acc 4)
             (Int64.of_int (Char.code ch - Char.code 'a' + 10)))
      | _ -> None
  in
  go 0 0L

let of_string (s : string) : ctx option =
  if
    String.length s = 36
    && s.[16] = '-' && s.[33] = '-'
  then
    match (hex64 s 0, hex64 s 17, int_of_string_opt ("0x" ^ String.sub s 34 2))
    with
    | Some trace_id, Some span_id, Some flags ->
      Some { trace_id; span_id; sampled = flags land 1 = 1 }
    | _ -> None
  else None

(* ------------------------------------------------------------------ *)
(* Settings                                                             *)
(* ------------------------------------------------------------------ *)

type settings = { sample : float; buffer : int; slow_us : int }

let settings ?(sample = 0.) ?(buffer = 4096) ?(slow_us = 0) () : settings =
  { sample = Float.max 0.0 (Float.min 1.0 sample)
  ; buffer = max 16 buffer
  ; slow_us = max 0 slow_us }

(* ------------------------------------------------------------------ *)
(* Spans and collectors                                                 *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_trace : int64;
  sp_id : int64;
  sp_parent : int64;
  sp_stage : string;
  sp_stream : string;
  sp_shard : int;
  sp_start_us : int;
  sp_dur_us : int;
}

type collector = {
  col_shard : int;
  col_slow_us : int;
  col_rate : float;
  mutable col_rng : int64;  (** sampling PRNG; owning loop thread only *)
  mu : Mutex.t;  (** guards the ring (record vs. export snapshot) *)
  ring : span option array;
  mutable next : int;  (** ring write cursor *)
  mutable total : int;  (** spans ever recorded *)
}

let collector ?(shard = 0) (s : settings) : collector =
  { col_shard = shard
  ; col_slow_us = s.slow_us
  ; col_rate = s.sample
  ; col_rng = fresh_id ()
  ; mu = Mutex.create ()
  ; ring = Array.make s.buffer None
  ; next = 0
  ; total = 0 }

let sample (c : collector) : bool =
  c.col_rate > 0.0
  && (c.col_rate >= 1.0
     ||
     let s, z = splitmix64 c.col_rng in
     c.col_rng <- s;
     (* top 53 bits as a float in [0,1) *)
     Int64.to_float (Int64.shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)
     < c.col_rate)

let should_record (c : collector) ~(sampled : bool) ~(dur_us : int) : bool =
  sampled || (c.col_slow_us > 0 && dur_us >= c.col_slow_us)

let record (c : collector) ~trace ~parent ~stage ~stream ~start_us ~dur_us :
    unit =
  let sp =
    { sp_trace = trace; sp_id = fresh_id (); sp_parent = parent
    ; sp_stage = stage; sp_stream = stream; sp_shard = c.col_shard
    ; sp_start_us = start_us; sp_dur_us = dur_us }
  in
  Mutex.lock c.mu;
  c.ring.(c.next) <- Some sp;
  c.next <- (c.next + 1) mod Array.length c.ring;
  c.total <- c.total + 1;
  Mutex.unlock c.mu

let spans (c : collector) : span list =
  Mutex.lock c.mu;
  let n = Array.length c.ring in
  let acc = ref [] in
  (* walk backwards from the newest slot so the result is oldest-first *)
  for i = 0 to n - 1 do
    match c.ring.((c.next + n - 1 - i) mod n) with
    | Some sp -> acc := sp :: !acc
    | None -> ()
  done;
  Mutex.unlock c.mu;
  !acc

let recorded (c : collector) : int =
  Mutex.lock c.mu;
  let v = c.total in
  Mutex.unlock c.mu;
  v

let dropped (c : collector) : int =
  Mutex.lock c.mu;
  let v = max 0 (c.total - Array.length c.ring) in
  Mutex.unlock c.mu;
  v

let clear (c : collector) : unit =
  Mutex.lock c.mu;
  Array.fill c.ring 0 (Array.length c.ring) None;
  c.next <- 0;
  c.total <- 0;
  Mutex.unlock c.mu

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

let chrome_json (l : span list) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"relay\",\"ph\":\"X\",\"ts\":%d,\
            \"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"trace\":\"%s\",\
            \"span\":\"%s\",\"parent\":\"%s\",\"stream\":\"%s\"}}"
           (Omf_util.Json.escape sp.sp_stage) sp.sp_start_us sp.sp_dur_us sp.sp_shard
           sp.sp_shard (id_to_string sp.sp_trace) (id_to_string sp.sp_id)
           (id_to_string sp.sp_parent)
           (Omf_util.Json.escape sp.sp_stream)))
    l;
  Buffer.add_string b "]}";
  Buffer.contents b
