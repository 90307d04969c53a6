(** Tests for the durable per-stream store: segmented append-only logs
    with CRC-checked framing, sparse offset indexes, fsync policies,
    torn-tail recovery at every byte offset, sealed-segment replay after
    a restart, and retention (doc/STORE.md). *)

module Store = Omf_store.Store
module Slice = Omf_util.Slice

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let rec rm path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-store-%d-%d" (Unix.getpid ()) (Random.int 1000000))
  in
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

let cfg ?(segment_bytes = 256) ?(fsync = Store.Never) ?(retain_segments = 0)
    ?(retain_bytes = 0) ?(retain_age = 0.0) root =
  { (Store.default_config ~root) with
    segment_bytes
  ; fsync
  ; retain_segments
  ; retain_bytes
  ; retain_age }

let frame seq = Bytes.of_string (Printf.sprintf "Mevent-%06d" seq)

let read_all st from =
  let acc = ref [] in
  Store.iter_range_slices st from max_int (fun off f ->
      acc := (off, Slice.to_string f) :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)

let test_append_roll_iter () =
  with_root (fun root ->
      let st = Store.open_stream (cfg root) "flights" in
      let n = 100 in
      for seq = 0 to n - 1 do
        check int "offset is dense" seq (Store.append st (frame seq))
      done;
      check int "tail" n (Store.tail st);
      check bool "rolled into several segments" true (Store.segments st > 1);
      let got = read_all st 0 in
      check int "every frame back" n (List.length got);
      List.iteri
        (fun i (off, body) ->
          check int "offset in order" i off;
          check string "body intact" (Bytes.to_string (frame i)) body)
        got;
      (* reading from the middle lands exactly there, across segments *)
      let mid = read_all st 57 in
      check int "suffix length" (n - 57) (List.length mid);
      check int "suffix starts at 57" 57 (fst (List.hd mid));
      Store.close st)

let test_reopen_recovers () =
  with_root (fun root ->
      let st = Store.open_stream (cfg root) "flights" in
      Store.set_schema st "<schema/>";
      ignore (Store.append_descriptor st (Bytes.of_string "Ddescriptor-1"));
      for seq = 0 to 19 do
        ignore (Store.append st (frame seq))
      done;
      Store.close st;
      let st = Store.open_stream (cfg root) "flights" in
      check int "tail recovered" 20 (Store.tail st);
      check int "recovery makes everything durable" 20 (Store.durable st);
      check (Alcotest.option string) "schema recovered" (Some "<schema/>")
        (Store.schema st);
      check int "descriptors recovered" 1 (List.length (Store.descriptors st));
      (* appending continues the dense numbering *)
      check int "next offset" 20 (Store.append st (frame 20));
      check int "all frames readable" 21 (List.length (read_all st 0));
      Store.close st)

let test_descriptor_dedupe () =
  with_root (fun root ->
      let st = Store.open_stream (cfg root) "flights" in
      let d = Bytes.of_string "Ddescriptor-1" in
      check bool "first write" true (Store.append_descriptor st d);
      check bool "identical content skipped" false (Store.append_descriptor st d);
      check bool "different content written" true
        (Store.append_descriptor st (Bytes.of_string "Ddescriptor-2"));
      Store.close st;
      let st = Store.open_stream (cfg root) "flights" in
      check bool "dedupe survives reopen" false (Store.append_descriptor st d);
      check int "two descriptors stored" 2 (List.length (Store.descriptors st));
      Store.close st)

let test_torn_tail_truncated () =
  with_root (fun root ->
      let st = Store.open_stream (cfg ~segment_bytes:100_000 root) "flights" in
      for seq = 0 to 9 do
        ignore (Store.append st (frame seq))
      done;
      Store.close st;
      (* tear the last record: drop 3 bytes off the tail segment, as a
         crash mid-write would *)
      let seg =
        Filename.concat (Filename.concat root "flights")
          (Printf.sprintf "%020d.seg" 0)
      in
      let size = (Unix.stat seg).Unix.st_size in
      let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let st = Store.open_stream (cfg ~segment_bytes:100_000 root) "flights" in
      check int "torn record dropped" 9 (Store.tail st);
      check bool "truncation accounted" true (Store.truncated_bytes st > 0);
      check int "surviving frames intact" 9 (List.length (read_all st 0));
      (* the torn offset is reused, not skipped *)
      check int "offset 9 reassigned" 9 (Store.append st (frame 9));
      check int "all ten read back" 10 (List.length (read_all st 0));
      Store.close st)

let test_corrupt_sealed_record_detected () =
  with_root (fun root ->
      (* many small segments, so segment 0 is sealed (a corrupt TAIL
         record is torn-tail territory and silently truncated instead) *)
      let st = Store.open_stream (cfg root) "flights" in
      for seq = 0 to 99 do
        ignore (Store.append st (frame seq))
      done;
      check bool "several segments" true (Store.segments st > 2);
      Store.close st;
      (* flip one byte mid-record in the sealed first segment: the
         record's CRC must catch it on read *)
      let seg =
        Filename.concat (Filename.concat root "flights")
          (Printf.sprintf "%020d.seg" 0)
      in
      let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
      let pos = ((Unix.stat seg).Unix.st_size / 2) + 12 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let st = Store.open_stream (cfg root) "flights" in
      check int "recovery still trusts sealed structure" 100 (Store.tail st);
      (match read_all st 0 with
      | _ -> Alcotest.fail "expected Store_error on CRC mismatch"
      | exception Store.Store_error _ -> ());
      Store.close st)

let test_retention () =
  with_root (fun root ->
      let st =
        Store.open_stream (cfg ~retain_segments:3 root) "flights"
      in
      for seq = 0 to 99 do
        ignore (Store.append st (frame seq))
      done;
      check bool "segments capped" true (Store.segments st <= 3);
      check bool "oldest advanced" true (Store.oldest st > 0);
      check int "tail unaffected" 100 (Store.tail st);
      (* reads clamp up to the oldest retained offset *)
      let got = read_all st 0 in
      check int "first readable = oldest" (Store.oldest st) (fst (List.hd got));
      check int "suffix complete" (100 - Store.oldest st) (List.length got);
      (* retention never deletes the tail segment *)
      check bool "tail survives" true (Store.segments st >= 1);
      Store.close st)

let test_fsync_policies () =
  (* string round-trips *)
  List.iter
    (fun (s, p) ->
      (match Store.fsync_policy_of_string s with
      | Ok q ->
        check string "round-trip" (Store.fsync_policy_to_string p)
          (Store.fsync_policy_to_string q)
      | Error m -> Alcotest.failf "%s: %s" s m);
      check string "to_string" s (Store.fsync_policy_to_string p))
    [ ("never", Store.Never)
    ; ("every=8", Store.Every_n 8)
    ; ("interval=0.5", Store.Interval 0.5) ];
  check bool "garbage rejected" true
    (Result.is_error (Store.fsync_policy_of_string "sometimes"));
  (* Every_n advances durable on the boundary *)
  with_root (fun root ->
      let st =
        Store.open_stream
          (cfg ~segment_bytes:100_000 ~fsync:(Store.Every_n 4) root)
          "flights"
      in
      for seq = 0 to 2 do
        ignore (Store.append st (frame seq))
      done;
      check int "below the boundary: not yet durable" 0 (Store.durable st);
      ignore (Store.append st (frame 3));
      check int "boundary fsync" 4 (Store.durable st);
      (* an explicit sync drains stragglers *)
      ignore (Store.append st (frame 4));
      check int "sync returns durable" 5 (Store.sync st);
      Store.close st)

let test_stream_names () =
  with_root (fun root ->
      let c = cfg root in
      let open_close name =
        let st = Store.open_stream c name in
        ignore (Store.append st (frame 0));
        Store.close st
      in
      (* names with characters unsafe in file systems round-trip *)
      let names = [ "flights"; "EU/ops:alerts"; "weather.v2" ] in
      List.iter open_close names;
      check
        (Alcotest.slist string compare)
        "streams listed under their wire names" names (Store.streams c);
      (* and reopen under the original name *)
      let st = Store.open_stream c "EU/ops:alerts" in
      check string "stream name preserved" "EU/ops:alerts" (Store.stream st);
      check int "its frame is there" 1 (Store.tail st);
      Store.close st)

(* ------------------------------------------------------------------ *)
(* every torn offset: damage a stream's file at byte k, for every k *)

let file_size path = (Unix.stat path).Unix.st_size

let truncate_at k path =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd k;
  Unix.close fd

let flip_at k path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd k Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd k Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* For every byte offset k of file [name] in the "flights" stream under
   [tmpl], and for each damage (truncate at k, flip byte k), call
   [check_case ~damage ~k root] with [root] a store holding a fresh copy
   of the stream with that damage applied. *)
let every_offset tmpl ~scratch name check_case =
  let src = Filename.concat tmpl "flights" in
  let size = file_size (Filename.concat src name) in
  List.iter
    (fun (damage, apply) ->
      for k = 0 to size - 1 do
        rm scratch;
        let dst = Filename.concat scratch "flights" in
        Unix.mkdir scratch 0o755;
        Unix.mkdir dst 0o755;
        Array.iter
          (fun f ->
            let ic = open_in_bin (Filename.concat src f) in
            let data = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let oc = open_out_bin (Filename.concat dst f) in
            output_string oc data;
            close_out oc)
          (Sys.readdir src);
        apply k (Filename.concat dst name);
        check_case ~damage ~k scratch
      done)
    [ ("truncate", truncate_at); ("flip", flip_at) ]

let magic_len = 8
let record_len body_len = 8 + body_len

let test_torn_tail_every_offset () =
  with_root (fun root ->
      let tmpl = Filename.concat root "tmpl" in
      let st = Store.open_stream (cfg tmpl) "flights" in
      for seq = 0 to 19 do
        ignore (Store.append st (frame seq))
      done;
      (* 256-byte segments of 21-byte records: 12 sealed, 8 in the tail *)
      let base = 12 in
      check int "one sealed segment and the tail" 2 (Store.segments st);
      check int "tail" (base + 8) (Store.tail st);
      Store.close st;
      let name = Printf.sprintf "%020d.seg" base in
      let rec_len = record_len (Bytes.length (frame 0)) in
      check int "eight records in the tail segment" (magic_len + (8 * rec_len))
        (file_size (Filename.concat (Filename.concat tmpl "flights") name));
      every_offset tmpl ~scratch:(Filename.concat root "case") name
        (fun ~damage ~k root ->
          let what = Printf.sprintf "%s at %d" damage k in
          (* a damaged magic drops the segment; otherwise the records
             ending at or before k survive *)
          let whole = if k < magic_len then 0 else (k - magic_len) / rec_len in
          let kept =
            if k < magic_len then 0 else magic_len + (whole * rec_len)
          in
          let damaged_size =
            if damage = "truncate" then k else magic_len + (8 * rec_len)
          in
          let st = Store.open_stream (cfg root) "flights" in
          check int (what ^ ": tail") (base + whole) (Store.tail st);
          check int (what ^ ": truncated bytes") (damaged_size - kept)
            (Store.truncated_bytes st);
          let got = read_all st 0 in
          check int (what ^ ": survivors") (base + whole) (List.length got);
          List.iteri
            (fun i (off, body) ->
              check int (what ^ ": offset") i off;
              check string (what ^ ": body") (Bytes.to_string (frame i)) body)
            got;
          check int (what ^ ": next append takes the torn offset")
            (base + whole)
            (Store.append st (frame (base + whole)));
          Store.close st))

type meta_op = S of string | D of string | A of (string * string) list

let test_torn_meta_every_offset () =
  with_root (fun root ->
      let tmpl = Filename.concat root "tmpl" in
      let ops =
        [ S "<s1/>"
        ; D "Dd-1"
        ; A [ ("subject", "flights"); ("version", "1") ]
        ; D "Dd-2"
        ; S "<s2/>"
        ; A [ ("origin", "relay-a") ] ]
      in
      let st = Store.open_stream (cfg tmpl) "flights" in
      List.iter
        (function
          | S s -> Store.set_schema st s
          | D d -> ignore (Store.append_descriptor st (Bytes.of_string d))
          | A kvs -> Store.set_meta st kvs)
        ops;
      Store.close st;
      (* where each record ends in meta.log *)
      let ends =
        List.fold_left
          (fun (pos, acc) op ->
            let body =
              match op with
              | S s -> 1 + String.length s
              | D d -> String.length d
              | A kvs ->
                List.fold_left
                  (fun n (k, v) -> n + String.length k + String.length v + 2)
                  1 kvs
            in
            let pos = pos + record_len body in
            (pos, pos :: acc))
          (magic_len, []) ops
        |> snd |> List.rev
      in
      check int "meta.log holds every record"
        (List.nth ends (List.length ends - 1))
        (file_size
           (Filename.concat (Filename.concat tmpl "flights") "meta.log"));
      every_offset tmpl ~scratch:(Filename.concat root "case") "meta.log"
        (fun ~damage ~k root ->
          let what = Printf.sprintf "%s at %d" damage k in
          match Store.open_stream (cfg root) "flights" with
          | exception Store.Store_error _ when damage = "flip" && k < magic_len
            -> ()
          | _ when damage = "flip" && k < magic_len ->
            Alcotest.failf "%s: a flipped meta magic must raise" what
          | st ->
            let survivors =
              List.filteri
                (fun i _ -> List.nth ends i <= k)
                ops
            in
            let schema =
              List.fold_left
                (fun acc -> function S s -> Some s | _ -> acc)
                None survivors
            and descs =
              List.filter_map (function D d -> Some d | _ -> None) survivors
            and meta =
              List.fold_left
                (fun acc -> function A kvs -> kvs | _ -> acc)
                [] survivors
            in
            check (Alcotest.option string) (what ^ ": schema") schema
              (Store.schema st);
            check (Alcotest.list string) (what ^ ": descriptors") descs
              (List.map Bytes.to_string (Store.descriptors st));
            check
              (Alcotest.list (Alcotest.pair string string))
              (what ^ ": metadata") meta (Store.meta st);
            (* the repaired log takes appends that survive a reopen *)
            Store.set_schema st "<after/>";
            Store.close st;
            let st = Store.open_stream (cfg root) "flights" in
            check (Alcotest.option string) (what ^ ": appended after repair")
              (Some "<after/>") (Store.schema st);
            check int (what ^ ": descriptors after reopen") (List.length descs)
              (List.length (Store.descriptors st));
            Store.close st))

(* Sealed segments reopened with no index, replayed in the relay's
   64-frame chunks: more than 64 records per segment, records straddling
   the reader's 256 KiB windows, and one record larger than a window. *)
let test_sealed_replay_after_restart () =
  List.iter
    (fun compress ->
      with_root (fun root ->
          let c =
            { (cfg ~segment_bytes:(600 * 1024) root) with Store.compress }
          in
          let n = 1500 and big = 700 in
          let frames =
            Array.init n (fun i ->
                let len =
                  if i = big then 300 * 1024 else 200 + (i * 7919 mod 2500)
                in
                Bytes.init len (fun j ->
                    if j = 0 then 'M'
                    else Char.chr (97 + ((i + (j / 16)) mod 26))))
          in
          let st = Store.open_stream c "flights" in
          Array.iteri
            (fun i f -> check int "offset is dense" i (Store.append st f))
            frames;
          check bool "sealed segments compressed" compress
            (Store.comp_raw_bytes st > 0);
          Store.close st;
          let st = Store.open_stream c "flights" in
          check bool "several sealed segments" true (Store.segments st >= 3);
          check int "tail" n (Store.tail st);
          let replay from until =
            let next = ref from in
            while !next < until do
              let upto = min until (!next + 64) in
              Store.iter_range_slices st !next upto (fun off body ->
                  if off <> !next then
                    Alcotest.failf "expected offset %d, got %d" !next off;
                  if not (Slice.equal_bytes body frames.(off)) then
                    Alcotest.failf "frame %d differs (compress=%b)" off
                      compress;
                  incr next);
              check int "chunk ends at its bound" upto !next
            done
          in
          (* mid-segment starts first, so segments are entered in the
             middle before anything has walked them from the start *)
          List.iter
            (fun from -> replay from (min n (from + (3 * 64))))
            [ 1000; big; 65; big - 1; n - 5 ];
          replay 0 n;
          replay 0 n;
          Store.close st))
    [ false; true ]

let () =
  Alcotest.run "store"
    [ ( "store",
        [ Alcotest.test_case "append, roll, iterate" `Quick test_append_roll_iter
        ; Alcotest.test_case "reopen recovers tail + meta" `Quick
            test_reopen_recovers
        ; Alcotest.test_case "descriptor dedupe" `Quick test_descriptor_dedupe
        ; Alcotest.test_case "torn tail truncated, offset reused" `Quick
            test_torn_tail_truncated
        ; Alcotest.test_case "sealed-record corruption detected" `Quick
            test_corrupt_sealed_record_detected
        ; Alcotest.test_case "torn tail at every offset" `Quick
            test_torn_tail_every_offset
        ; Alcotest.test_case "torn meta log at every offset" `Quick
            test_torn_meta_every_offset
        ; Alcotest.test_case "sealed replay after restart" `Quick
            test_sealed_replay_after_restart
        ; Alcotest.test_case "retention drops old segments" `Quick
            test_retention
        ; Alcotest.test_case "fsync policies" `Quick test_fsync_policies
        ; Alcotest.test_case "stream name sanitisation" `Quick test_stream_names
        ] ) ]
