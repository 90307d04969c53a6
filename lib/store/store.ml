module Log = Omf_util.Log
module Slice = Omf_util.Slice
module Compress = Omf_compress.Compress
module Decode = Omf_util.Decode

exception Store_error of string

let store_error fmt = Printf.ksprintf (fun s -> raise (Store_error s)) fmt

type fsync_policy = Never | Every_n of int | Interval of float

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "never" -> Ok Never
  | s when String.length s > 6 && String.sub s 0 6 = "every=" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some n when n > 0 -> Ok (Every_n n)
    | _ -> Error "every=N needs a positive integer")
  | s when String.length s > 9 && String.sub s 0 9 = "interval=" -> (
    match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
    | Some f when f > 0. -> Ok (Interval f)
    | _ -> Error "interval=SECS needs a positive number")
  | _ -> Error "expected never, every=N or interval=SECS"

let fsync_policy_to_string = function
  | Never -> "never"
  | Every_n n -> Printf.sprintf "every=%d" n
  | Interval s -> Printf.sprintf "interval=%g" s

type config = {
  root : string;
  segment_bytes : int;
  fsync : fsync_policy;
  retain_segments : int;
  retain_bytes : int;
  retain_age : float;
  compress : bool;
      (** rewrite each segment as one LZ block when it is sealed
          (doc/COMPRESS.md); the tail stays uncompressed so appends and
          torn-tail recovery are unchanged, and retention budgets count
          the compressed on-disk size *)
}

let default_config ~root =
  {
    root;
    segment_bytes = 64 * 1024 * 1024;
    fsync = Interval 0.1;
    retain_segments = 0;
    retain_bytes = 0;
    retain_age = 0.;
    compress = false;
  }

(* On-disk framing: magic header, then [u32 len | u32 crc | body]
   records. Meta bodies start with a kind byte ('S' schema text, 'D'
   verbatim descriptor frame, 'A' advertisement metadata as "k=v"
   lines — latest wins); segment bodies are verbatim 'M' frames. *)

let seg_magic = "OMFSEG01"

(* A sealed-and-compressed segment: magic, then one {!Omf_compress}
   block whose plaintext is the record region a plain segment would
   hold after its magic. Only sealed segments ever carry this magic —
   [roll] creates the fresh tail {e before} rewriting the sealed file
   (tmp + rename), so the newest segment, the only one torn-tail
   recovery scans, is always a plain [seg_magic] file. *)
let seg_magic_z = "OMFSEGZ1"
let meta_magic = "OMFMETA1"
let magic_len = 8
let header_len = 8
let max_record = 1 lsl 26

type seg = {
  s_base : int; (* offset of first record *)
  s_path : string;
  mutable s_count : int;
  mutable s_size : int; (* file bytes incl. magic *)
  mutable s_index : int array;
      (* [s_index.(i)] is the file position of record [s_base + 64 i];
         the first [s_indexed] entries are filled, by {!walk} only *)
  mutable s_indexed : int;
  mutable s_sealed_at : float; (* mtime proxy for age retention *)
}

let seg_record ~base ~path ~count ~size ~sealed_at =
  {
    s_base = base;
    s_path = path;
    s_count = count;
    s_size = size;
    s_index = [||];
    s_indexed = 0;
    s_sealed_at = sealed_at;
  }

type t = {
  cfg : config;
  name : string;
  dir : string;
  meta_path : string;
  mutable meta_fd : Unix.file_descr;
  mutable schema_ : string option;
  mutable meta_kvs : (string * string) list;
  seen_desc : (string, unit) Hashtbl.t;
  mutable descs_rev : Bytes.t list;
  mutable segs : seg list; (* ascending base; last is the tail *)
  mutable tail_seg : seg; (* the last of [segs] *)
  mutable tail_fd : Unix.file_descr;
  mutable tail_off : int; (* next offset *)
  mutable durable_ : int;
  mutable unsynced : int;
  mutable dirty : bool;
  mutable truncated : int;
  mutable comp_raw : int;
      (** record-region bytes fed to segment compression this run *)
  mutable comp_stored : int;
      (** what those regions occupy on disk after sealing *)
  mutable closed : bool;
  mutable wbuf : Bytes.t;
      (** reusable record-staging buffer: header + body are framed here
          and written with one syscall, so an append allocates nothing
          (oversized records fall back to a one-shot buffer) *)
}

(* ------------------------------------------------------------------ *)
(* small IO helpers *)

let write_all fd b pos len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    let n = Unix.write fd b !off !left in
    off := !off + n;
    left := !left - n
  done

let read_exact fd b pos len =
  (* returns bytes actually read (< len only at EOF) *)
  let off = ref pos and left = ref len in
  (try
     while !left > 0 do
       let n = Unix.read fd b !off !left in
       if n = 0 then raise Exit;
       off := !off + n;
       left := !left - n
     done
   with Exit -> ());
  len - !left

let put_u32 b pos v = Bytes.set_int32_be b pos (Int32.of_int v)
let get_u32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFF_FFFF

let fsync_dir path =
  (* Persist directory entries (segment creation/unlink); best effort —
     some filesystems reject fsync on directories. *)
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Stream names become directory names; escape anything outside a safe
   alphabet so arbitrary stream names (slashes, dots) cannot traverse. *)

let safe_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      if safe_char c then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  if Buffer.length b = 0 then "%empty" else Buffer.contents b

let unsanitize dir_name =
  if dir_name = "%empty" then Some ""
  else
    let b = Buffer.create (String.length dir_name) in
    let n = String.length dir_name in
    let rec go i =
      if i >= n then Some (Buffer.contents b)
      else if dir_name.[i] = '%' then
        if i + 2 < n then (
          match int_of_string_opt ("0x" ^ String.sub dir_name (i + 1) 2) with
          | Some c ->
            Buffer.add_char b (Char.chr c);
            go (i + 3)
          | None -> None)
        else None
      else begin
        Buffer.add_char b dir_name.[i];
        go (i + 1)
      end
    in
    go 0

let seg_path dir base = Filename.concat dir (Printf.sprintf "%020d.seg" base)

let seg_base_of_name name =
  if Filename.check_suffix name ".seg" then
    int_of_string_opt (Filename.chop_suffix name ".seg")
  else None

(* ------------------------------------------------------------------ *)
(* record IO *)

(* records bigger than this don't go through the reusable staging
   buffer, so one huge append cannot pin megabytes forever *)
let wbuf_max = 1 lsl 20

let staging_buf t len =
  if len <= Bytes.length t.wbuf then t.wbuf
  else if len > wbuf_max then Bytes.create len
  else begin
    let cap = ref (max 4096 (2 * Bytes.length t.wbuf)) in
    while !cap < len do
      cap := !cap * 2
    done;
    t.wbuf <- Bytes.create !cap;
    t.wbuf
  end

let write_record t fd (body : Slice.t) =
  let len = Slice.length body in
  let buf = staging_buf t (header_len + len) in
  put_u32 buf 0 len;
  put_u32 buf 4 (Omf_util.Crc32.digest body.Slice.buf ~pos:body.Slice.off ~len);
  Slice.blit body buf header_len;
  write_all fd buf 0 (header_len + len);
  header_len + len

let read_magic fd =
  let m = Bytes.create magic_len in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  Bytes.sub_string m 0 (read_exact fd m 0 magic_len)

(* Sparse index: the position of every [index_stride]-th record of a
   segment, filled lazily by the walker as it passes them. A walk
   always starts at a filled entry (or the segment start), so entries
   are met in order. *)
let index_stride = 64

let note_index seg off pos =
  let rel = off - seg.s_base in
  if rel mod index_stride = 0 && rel / index_stride = seg.s_indexed then begin
    if seg.s_indexed = Array.length seg.s_index then begin
      let grown = Array.make (max 8 (2 * seg.s_indexed)) 0 in
      Array.blit seg.s_index 0 grown 0 seg.s_indexed;
      seg.s_index <- grown
    end;
    seg.s_index.(seg.s_indexed) <- pos;
    seg.s_indexed <- seg.s_indexed + 1
  end

(* The nearest indexed (offset, position) at or below [from]. *)
let index_floor seg from =
  let i = min ((from - seg.s_base) / index_stride) (seg.s_indexed - 1) in
  if i < 0 then (seg.s_base, magic_len)
  else (seg.s_base + (i * index_stride), seg.s_index.(i))

(* Where a walk reads: a file, or the inflated record region of a
   compressed segment — the plaintext of the file bytes after the
   magic, so positions (and index entries) mean the same in both. *)
type source = File of Unix.file_descr | Region of Bytes.t

let window = 256 * 1024

(* The store's one record reader. Walks the records at file positions
   [[pos, size)] of [src], the first being offset [off], until offset
   [upto]. Records below [from] are stepped over on their header alone;
   every other record is length- and CRC-checked and handed to [f] as a
   slice. File bytes are read through fresh [window]-byte buffers (a
   larger record gets one of its own) that are never reused, so slices
   stay valid after the walk — the relay queues them as they are. A
   caller that knows how much it will read passes a smaller [window].
   Returns [`End (off, pos)] just past the last record walked, or
   [`Bad (off, pos)] at the first torn or corrupt one. With [seg], the
   walk fills that segment's sparse index. *)
let walk ?seg ?(window = window) src ~size ~off ~pos ~from ~upto f =
  let buf, base, got =
    match src with
    | Region r -> (ref r, ref magic_len, ref (Bytes.length r))
    | File _ -> (ref Bytes.empty, ref pos, ref 0)
  in
  (* make file bytes [p, p + n) addressable in [!buf] *)
  let have p n =
    (p >= !base && p + n <= !base + !got)
    ||
    match src with
    | Region _ -> false
    | File fd ->
      let b = Bytes.create (max n (min window (size - p))) in
      ignore (Unix.lseek fd p Unix.SEEK_SET);
      buf := b;
      base := p;
      got := read_exact fd b 0 (Bytes.length b);
      n <= !got
  in
  let intact pos len =
    have pos (header_len + len)
    &&
    let i = pos - !base in
    Omf_util.Crc32.digest !buf ~pos:(i + header_len) ~len = get_u32 !buf (i + 4)
  in
  let rec go off pos =
    if off >= upto || pos = size then `End (off, pos)
    else if pos + header_len > size || not (have pos header_len) then
      `Bad (off, pos)
    else
      let len = get_u32 !buf (pos - !base) in
      let next = pos + header_len + len in
      let deliver = off >= from in
      if len < 1 || len > max_record || next > size then `Bad (off, pos)
      else if deliver && not (intact pos len) then `Bad (off, pos)
      else begin
        (match seg with Some seg -> note_index seg off pos | None -> ());
        if deliver then f off (Slice.make !buf (pos - !base + header_len) len);
        go (off + 1) next
      end
  in
  go off pos

(* Cut a torn or corrupt suffix off a log file at [p]. *)
let truncate_torn t fd ~size ~path p =
  Unix.ftruncate fd p;
  (try Unix.fsync fd with Unix.Unix_error _ -> ());
  t.truncated <- t.truncated + (size - p);
  Log.warn (fun m ->
      m "stream %S: truncated torn record at %s byte %d (%d bytes)" t.name
        (Filename.basename path) p (size - p))

(* ------------------------------------------------------------------ *)
(* meta log *)

(* 'A' record bodies: one "k=v" line per entry, newline-terminated —
   the same line syntax the relay's ADVERTISE metadata uses on the
   wire, so persisted bindings round-trip verbatim. *)

let meta_kvs_to_text (kvs : (string * string) list) : string =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s\n" k v) kvs)

let meta_kvs_of_text (s : string) : (string * string) list =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | Some i when i > 0 ->
           Some
             ( String.sub line 0 i
             , String.sub line (i + 1) (String.length line - i - 1) )
         | _ -> None)

let load_meta_record t (body : Slice.t) =
  let text () = Slice.to_string (Slice.sub body 1 (Slice.length body - 1)) in
  match Slice.get body 0 with
  | 'S' -> t.schema_ <- Some (text ())
  | 'D' ->
    let body = Slice.to_bytes body in
    let digest = Omf_util.Sha256.digest_bytes body 0 (Bytes.length body) in
    if not (Hashtbl.mem t.seen_desc digest) then begin
      Hashtbl.replace t.seen_desc digest ();
      t.descs_rev <- body :: t.descs_rev
    end
  | 'A' -> t.meta_kvs <- meta_kvs_of_text (text ())
  | k ->
    Log.warn (fun m ->
        m "stream %S: unknown meta record kind %C ignored" t.name k)

let load_meta t =
  let fd = Unix.openfile t.meta_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  if size < magic_len then begin
    (* new, or torn during creation: (re)write the magic *)
    Unix.ftruncate fd 0;
    write_all fd (Bytes.of_string meta_magic) 0 magic_len;
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    fsync_dir t.dir;
    t.truncated <- t.truncated + size
  end
  else if read_magic fd <> meta_magic then
    store_error "%s: bad magic (not a store meta log)" t.meta_path
  else
    match
      walk (File fd) ~size ~off:0 ~pos:magic_len ~from:0 ~upto:max_int
        (fun _ body -> load_meta_record t body)
    with
    | `End _ -> ()
    | `Bad (_, p) -> truncate_torn t fd ~size ~path:t.meta_path p

let open_meta_append t =
  t.meta_fd <-
    Unix.openfile t.meta_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644

(* ------------------------------------------------------------------ *)
(* segments *)

let create_segment t base =
  let path = seg_path t.dir base in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  write_all fd (Bytes.of_string seg_magic) 0 magic_len;
  fsync_dir t.dir;
  let seg =
    seg_record ~base ~path ~count:0 ~size:magic_len
      ~sealed_at:(Unix.gettimeofday ())
  in
  (seg, fd)

(* Walk the tail segment, CRC-checking every record: count them, fill
   the sparse index, truncate at the first torn/corrupt record.
   [`Torn_header] if even the magic is damaged. *)
let recover_tail t (seg : seg) =
  let fd = Unix.openfile seg.s_path [ Unix.O_RDWR ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  if read_magic fd <> seg_magic then `Torn_header size
  else begin
    let ((`End (off, pos) | `Bad (off, pos)) as r) =
      walk ~seg (File fd) ~size ~off:seg.s_base ~pos:magic_len ~from:0
        ~upto:max_int (fun _ _ -> ())
    in
    (match r with
    | `Bad _ -> truncate_torn t fd ~size ~path:seg.s_path pos
    | `End _ -> ());
    seg.s_count <- off - seg.s_base;
    seg.s_size <- pos;
    `Recovered
  end

let load_segments t =
  (* sweep rewrite leftovers from a crash mid-compression: the plain
     original was still in place, so a tmp file is pure garbage *)
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".seg.tmp" then
        try Unix.unlink (Filename.concat t.dir n) with Unix.Unix_error _ -> ())
    (Sys.readdir t.dir);
  let names =
    Sys.readdir t.dir |> Array.to_list
    |> List.filter_map (fun n ->
           match seg_base_of_name n with Some b -> Some (b, n) | None -> None)
    |> List.sort compare
  in
  let set_tail sealed seg fd =
    t.segs <- sealed @ [ seg ];
    t.tail_seg <- seg;
    t.tail_fd <- fd;
    t.tail_off <- seg.s_base + seg.s_count
  in
  (* sealed: dense offsets make the count pure filename arithmetic; the
     tail is walked by recover_tail *)
  let rec load sealed_rev = function
    | [] ->
      let seg, fd = create_segment t 0 in
      set_tail [] seg fd
    | [ (base, name) ] -> (
      let path = Filename.concat t.dir name in
      let seg =
        seg_record ~base ~path ~count:0 ~size:0
          ~sealed_at:(Unix.stat path).Unix.st_mtime
      in
      let sealed = List.rev sealed_rev in
      match recover_tail t seg with
      | `Recovered ->
        set_tail sealed seg
          (Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644)
      | `Torn_header sz ->
        (* The newest segment's header itself is torn (crash during
           creation): no record in it can be valid, so replace it with a
           fresh empty segment at the same base. *)
        Log.warn (fun m ->
            m "stream %S: dropping segment %s with torn header (%d bytes)"
              t.name name sz);
        t.truncated <- t.truncated + sz;
        Unix.unlink path;
        let seg, fd = create_segment t base in
        set_tail sealed seg fd)
    | (base, name) :: ((next, _) :: _ as rest) ->
      let path = Filename.concat t.dir name in
      if next <= base then store_error "%s: segment bases out of order" path;
      let st = Unix.stat path in
      let seg =
        seg_record ~base ~path ~count:(next - base) ~size:st.Unix.st_size
          ~sealed_at:st.Unix.st_mtime
      in
      load (seg :: sealed_rev) rest
  in
  load [] names

(* ------------------------------------------------------------------ *)

let stream t = t.name
let tail t = t.tail_off
let durable t = t.durable_
let oldest t = match t.segs with [] -> 0 | s :: _ -> s.s_base
let segments t = List.length t.segs
let bytes t = List.fold_left (fun a s -> a + s.s_size) 0 t.segs
let schema t = t.schema_
let meta t = t.meta_kvs
let descriptors t = List.rev t.descs_rev
let truncated_bytes t = t.truncated
let comp_raw_bytes t = t.comp_raw
let comp_stored_bytes t = t.comp_stored

let check_open t = if t.closed then store_error "stream %S: closed" t.name

let do_sync t =
  if t.dirty then begin
    (try Unix.fsync t.tail_fd
     with Unix.Unix_error (e, _, _) ->
       store_error "stream %S: fsync: %s" t.name (Unix.error_message e));
    t.dirty <- false
  end;
  t.unsynced <- 0;
  t.durable_ <- t.tail_off;
  t.durable_

let sync t =
  check_open t;
  do_sync t

let apply_retention t =
  let deleted = ref 0 in
  let now = Unix.gettimeofday () in
  let excess () =
    match t.segs with
    | [] | [ _ ] -> false (* never delete the tail *)
    | oldest_seg :: _ ->
      (t.cfg.retain_segments > 0 && List.length t.segs > t.cfg.retain_segments)
      || (t.cfg.retain_bytes > 0 && bytes t > t.cfg.retain_bytes)
      || t.cfg.retain_age > 0.
         && now -. oldest_seg.s_sealed_at > t.cfg.retain_age
  in
  while excess () do
    match t.segs with
    | old :: rest ->
      (try Unix.unlink old.s_path with Unix.Unix_error _ -> ());
      t.segs <- rest;
      incr deleted;
      Log.info (fun m ->
          m "stream %S: retention dropped segment %s (%d records)" t.name
            (Filename.basename old.s_path) old.s_count)
    | [] -> assert false
  done;
  if !deleted > 0 then fsync_dir t.dir;
  !deleted

(* Rewrite a freshly sealed segment as one compressed block. Crash-safe
   by ordering: the caller has already created the new tail, so if this
   dies mid-rewrite the original plain segment survives (the tmp file
   is invisible to {!seg_base_of_name} and swept on open) and if it
   dies after the rename the compressed form is complete. Best-effort:
   an IO failure or an incompressible region leaves the segment plain —
   the read side sniffs the magic per file either way. *)
let compress_sealed t (seg : seg) =
  match
    let fd = Unix.openfile seg.s_path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let m = Bytes.create magic_len in
        if
          size <= magic_len
          || read_exact fd m 0 magic_len < magic_len
          || Bytes.to_string m <> seg_magic
        then None
        else begin
          let region = Bytes.create (size - magic_len) in
          if read_exact fd region 0 (size - magic_len) < size - magic_len
          then None
          else
            let blk = Compress.compress region in
            if magic_len + Bytes.length blk >= size then None
            else Some (blk, size)
        end)
  with
  | None -> ()
  | Some (blk, raw_size) ->
    let tmp = seg.s_path ^ ".tmp" in
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    write_all fd (Bytes.of_string seg_magic_z) 0 magic_len;
    write_all fd blk 0 (Bytes.length blk);
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd;
    Unix.rename tmp seg.s_path;
    fsync_dir t.dir;
    seg.s_size <- magic_len + Bytes.length blk;
    t.comp_raw <- t.comp_raw + (raw_size - magic_len);
    t.comp_stored <- t.comp_stored + seg.s_size;
    Log.debug (fun m ->
        m "stream %S: sealed %s compressed %d -> %d bytes" t.name
          (Filename.basename seg.s_path) raw_size seg.s_size)
  | exception (Unix.Unix_error _ | Sys_error _) -> ()

let roll t =
  (* Seal the current tail: make it durable, then start a new segment.
     When compressing, the new tail must exist on disk before the
     sealed file is rewritten — see {!compress_sealed}. *)
  (try Unix.fsync t.tail_fd with Unix.Unix_error _ -> ());
  Unix.close t.tail_fd;
  t.dirty <- false;
  t.unsynced <- 0;
  t.durable_ <- t.tail_off;
  let sealed = t.tail_seg in
  sealed.s_sealed_at <- Unix.gettimeofday ();
  let seg, fd = create_segment t t.tail_off in
  t.segs <- t.segs @ [ seg ];
  t.tail_seg <- seg;
  t.tail_fd <- fd;
  if t.cfg.compress then compress_sealed t sealed;
  ignore (apply_retention t)

let append_slice t (frame : Slice.t) =
  check_open t;
  if Slice.length frame = 0 then store_error "stream %S: empty frame" t.name;
  if Slice.length frame > max_record then
    store_error "stream %S: frame of %d bytes exceeds record limit" t.name
      (Slice.length frame);
  if t.tail_seg.s_size >= t.cfg.segment_bytes && t.tail_seg.s_count > 0 then
    roll t;
  let seg = t.tail_seg in
  let written = write_record t t.tail_fd frame in
  let off = t.tail_off in
  seg.s_count <- seg.s_count + 1;
  seg.s_size <- seg.s_size + written;
  t.tail_off <- off + 1;
  t.unsynced <- t.unsynced + 1;
  t.dirty <- true;
  (match t.cfg.fsync with
  | Never ->
    (* Durable enough for process crashes: the write is in the page
       cache. Power loss can still lose it; that is the contract. *)
    t.durable_ <- t.tail_off
  | Every_n n -> if t.unsynced >= n then ignore (do_sync t)
  | Interval _ -> ());
  off

let append t frame = append_slice t (Slice.of_bytes frame)

let append_meta t body =
  let _ = write_record t t.meta_fd (Slice.of_bytes body) in
  try Unix.fsync t.meta_fd
  with Unix.Unix_error (e, _, _) ->
    store_error "stream %S: meta fsync: %s" t.name (Unix.error_message e)

let append_descriptor t frame =
  check_open t;
  let digest = Omf_util.Sha256.digest_bytes frame 0 (Bytes.length frame) in
  if Hashtbl.mem t.seen_desc digest then false
  else begin
    Hashtbl.replace t.seen_desc digest ();
    t.descs_rev <- Bytes.copy frame :: t.descs_rev;
    append_meta t frame;
    true
  end

let set_schema t text =
  check_open t;
  if t.schema_ <> Some text then begin
    t.schema_ <- Some text;
    let body = Bytes.create (1 + String.length text) in
    Bytes.set body 0 'S';
    Bytes.blit_string text 0 body 1 (String.length text);
    append_meta t body
  end

let set_meta t kvs =
  check_open t;
  if t.meta_kvs <> kvs then begin
    t.meta_kvs <- kvs;
    let text = meta_kvs_to_text kvs in
    let body = Bytes.create (1 + String.length text) in
    Bytes.set body 0 'A';
    Bytes.blit_string text 0 body 1 (String.length text);
    append_meta t body
  end

(* Reading: per call we open a fresh read-only fd per segment and walk
   it from the nearest sparse-index entry at or below the requested
   offset. Compressed sealed segments (magic sniffed per open) are
   inflated whole — they are bounded by [segment_bytes] — and walked in
   memory. *)

let seg_source t (seg : seg) fd =
  let corrupt what =
    store_error "stream %S: segment %s: %s" t.name
      (Filename.basename seg.s_path) what
  in
  match read_magic fd with
  | m when m = seg_magic -> File fd
  | m when m = seg_magic_z -> (
    let zlen = seg.s_size - magic_len in
    let blob = Bytes.create zlen in
    if read_exact fd blob 0 zlen < zlen then corrupt "truncated";
    match Compress.decompress blob with
    | region -> Region region
    | exception Decode.Error { layer; offset; reason } ->
      corrupt ("corrupt compressed region: " ^ Decode.message layer offset reason))
  | m when String.length m < magic_len -> corrupt "truncated"
  | _ -> corrupt "bad magic"

let iter_range_slices t from upto (f : int -> Slice.t -> unit) =
  check_open t;
  let upto = min upto t.tail_off in
  List.iter
    (fun seg ->
      let from = max from seg.s_base
      and stop = min upto (seg.s_base + seg.s_count) in
      if from < stop then begin
        let fd = Unix.openfile seg.s_path [ Unix.O_RDONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        let src = seg_source t seg fd in
        let size =
          match src with
          | File _ -> seg.s_size
          | Region r -> magic_len + Bytes.length r
        in
        let off, pos = index_floor seg from in
        (* read about what the range holds, at the segment's mean record
           size plus one record, not a whole window: a paced replay
           asks for a chunk of records at a time, and every read is a
           fresh buffer *)
        let mean = (seg.s_size - magic_len) / max 1 seg.s_count in
        let window = min window (mean * (stop - off + 1)) in
        match walk ~seg ~window src ~size ~off ~pos ~from ~upto:stop f with
        | `End (off, _) when off = stop -> ()
        | `End (_, p) | `Bad (_, p) ->
          store_error "stream %S: corrupt record at %s byte %d" t.name
            (Filename.basename seg.s_path) p
      end)
    t.segs

let close t =
  if not t.closed then begin
    (try ignore (do_sync t) with Store_error _ -> ());
    (try Unix.close t.tail_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.meta_fd with Unix.Unix_error _ -> ());
    t.closed <- true
  end

let open_stream cfg name =
  let dir = Filename.concat cfg.root (sanitize name) in
  mkdir_p dir;
  let t =
    {
      cfg;
      name;
      dir;
      meta_path = Filename.concat dir "meta.log";
      meta_fd = Unix.stdin (* replaced below *);
      schema_ = None;
      meta_kvs = [];
      seen_desc = Hashtbl.create 8;
      descs_rev = [];
      segs = [];
      tail_seg = seg_record ~base:0 ~path:"" ~count:0 ~size:0 ~sealed_at:0.;
      tail_fd = Unix.stdin;
      tail_off = 0;
      durable_ = 0;
      unsynced = 0;
      dirty = false;
      truncated = 0;
      comp_raw = 0;
      comp_stored = 0;
      closed = false;
      wbuf = Bytes.create 4096;
    }
  in
  load_meta t;
  open_meta_append t;
  load_segments t;
  (* Everything that survived recovery is on disk by definition. *)
  t.durable_ <- t.tail_off;
  Log.debug (fun m ->
      m "stream %S: opened at offset %d (%d segments%s)" t.name t.tail_off
        (List.length t.segs)
        (if t.truncated > 0 then
           Printf.sprintf ", %d torn bytes truncated" t.truncated
         else ""));
  t

let streams cfg =
  if not (Sys.file_exists cfg.root) then []
  else
    Sys.readdir cfg.root |> Array.to_list
    |> List.filter (fun n ->
           Sys.is_directory (Filename.concat cfg.root n)
           && Sys.file_exists (Filename.concat (Filename.concat cfg.root n) "meta.log"))
    |> List.filter_map unsanitize
    |> List.sort compare
