(** Tests for binary journals: cross-ABI replay, descriptor embedding,
    mixed formats, format upgrades mid-file, corruption detection, the
    file's exact bytes. *)

open Omf_machine
open Omf_pbio.Pbio
module Journal = Omf_journal.Journal
module Fx = Omf_fixtures.Paper_structs
module Decode = Omf_util.Decode

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

let with_tmp f =
  let path = Filename.temp_file "omf-journal" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* journal [v] through a scratch memory of [abi] *)
let append_value writer abi fmt v =
  let mem = Memory.create abi in
  Journal.Writer.append writer mem fmt (Native.store mem fmt v)

let write_events path abi events =
  let reg = Registry.create abi in
  List.iter (fun d -> ignore (Registry.register reg d)) [ Fx.decl_a; Fx.decl_b ]
  |> ignore;
  let writer, close = Journal.Writer.to_file path in
  List.iter
    (fun (name, v) ->
      let fmt = Option.get (Registry.find reg name) in
      append_value writer abi fmt v)
    events;
  close ()

let read_all path abi =
  let reg = Registry.create abi in
  List.iter (fun d -> ignore (Registry.register reg d)) [ Fx.decl_a; Fx.decl_b ];
  let reader, close =
    Journal.Reader.of_file path reg (Memory.create abi)
  in
  Fun.protect ~finally:close (fun () ->
      List.rev (Journal.Reader.fold reader (fun acc ev -> ev :: acc) []))

let test_roundtrip_cross_abi () =
  with_tmp (fun path ->
      write_events path Abi.x86_64
        [ ("ASDOffEvent", Fx.value_a)
        ; ("ASDOffEventB", Fx.value_b)
        ; ("ASDOffEvent", Fx.value_a) ];
      (* replay on a big-endian 32-bit machine *)
      let events = read_all path Abi.sparc_32 in
      check int "three messages" 3 (List.length events);
      let fmt0, v0 = List.nth events 0 in
      check Alcotest.string "first format" "ASDOffEvent" fmt0.Format.name;
      check value_testable "payload survives the file + ABI change"
        (Value.String "ZTL-ARTCC-0004")
        (Value.field_exn v0 "cntrID");
      let fmt1, v1 = List.nth events 1 in
      check Alcotest.string "second format" "ASDOffEventB" fmt1.Format.name;
      check value_testable "array payload"
        (Value.Int 3L) (Value.field_exn v1 "eta_count"))

let test_descriptors_written_once () =
  with_tmp (fun path ->
      let abi = Abi.x86_64 in
      let reg = Registry.create abi in
      let fmt = Registry.register reg Fx.decl_a in
      let writer, close = Journal.Writer.to_file path in
      for _ = 1 to 10 do
        append_value writer abi fmt Fx.value_a
      done;
      close ();
      (* 1 descriptor + 10 messages *)
      check int "record count" 11
        (let reg2 = Registry.create abi in
         ignore (Registry.register reg2 Fx.decl_a);
         List.length (read_all path abi) + 1);
      check bool "writer counted the same" true
        (Journal.Writer.record_count writer = 11))

let test_format_upgrade_mid_file () =
  with_tmp (fun path ->
      let abi = Abi.x86_64 in
      let writer, close = Journal.Writer.to_file path in
      (* v1 events *)
      let reg1 = Registry.create abi in
      let fmt1 = Registry.register reg1 Fx.decl_a in
      append_value writer abi fmt1 Fx.value_a;
      (* upgraded format from a fresh registry: different descriptor *)
      let reg2 = Registry.create abi in
      let decl_v2 =
        { Fx.decl_a with
          Ftype.fields = Fx.decl_a.Ftype.fields @ [ Ftype.io_field "gate" "string" ] }
      in
      let fmt2 = Registry.register reg2 decl_v2 in
      append_value writer abi fmt2
        (Value.set_field Fx.value_a "gate" (Value.String "T7"));
      close ();
      (* a v2-aware reader sees both, the old event with a zero gate *)
      let reg = Registry.create Abi.sparc_32 in
      ignore (Registry.register reg decl_v2);
      let reader, rclose =
        Journal.Reader.of_file path reg (Memory.create Abi.sparc_32)
      in
      Fun.protect ~finally:rclose (fun () ->
          let events =
            List.rev (Journal.Reader.fold reader (fun acc ev -> ev :: acc) [])
          in
          check int "both events" 2 (List.length events);
          let _, v1 = List.nth events 0 in
          check value_testable "old event: empty gate" (Value.String "")
            (Value.field_exn v1 "gate");
          let _, v2 = List.nth events 1 in
          check value_testable "new event: gate present" (Value.String "T7")
            (Value.field_exn v2 "gate")))

let test_corruption_detected () =
  with_tmp (fun path ->
      write_events path Abi.x86_64 [ ("ASDOffEvent", Fx.value_a) ];
      (* truncate the file mid-record *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 5);
      Unix.close fd;
      let reg = Registry.create Abi.x86_64 in
      ignore (Registry.register reg Fx.decl_a);
      let reader, close =
        Journal.Reader.of_file path reg (Memory.create Abi.x86_64)
      in
      Fun.protect ~finally:close (fun () ->
          try
            ignore (Journal.Reader.fold reader (fun acc _ -> acc) ());
            Alcotest.fail "expected a decode error"
          with Decode.Error { layer = "journal"; reason = Truncated; _ } -> ()))

(* [f] raises the decode error of [layer] and [reason] at [offset] *)
let expect_decode_error ~layer ~reason ~offset f =
  match f () with
  | () -> Alcotest.fail "expected a decode error"
  | exception Decode.Error { layer = l; offset = o; reason = r } ->
    check Alcotest.string "layer" layer l;
    check bool (Decode.message l o r) true (r = reason);
    check int "offset" offset o

(* the byte offset of each record in the journal at [path] *)
let record_offsets path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rec go at acc =
    if at + 4 > String.length s then List.rev acc
    else go (at + 4 + Int32.to_int (String.get_int32_be s at)) (at :: acc)
  in
  go 8 []

let read_with_decl path =
  let reg = Registry.create Abi.x86_64 in
  ignore (Registry.register reg Fx.decl_a);
  let reader, close = Journal.Reader.of_file path reg (Memory.create Abi.x86_64) in
  Fun.protect ~finally:close (fun () ->
      ignore (Journal.Reader.fold reader (fun acc _ -> acc) ()))

let truncate_to path size =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd size;
  Unix.close fd

let test_torn_length_prefix () =
  (* A record whose u32 length prefix itself is cut short (a crash
     between the first and fourth prefix byte) is a torn tail, not a
     clean EOF: the reader must say so, with the offset. It used to be
     swallowed as end-of-journal. *)
  with_tmp (fun path ->
      write_events path Abi.x86_64 [ ("ASDOffEvent", Fx.value_a) ];
      let size = (Unix.stat path).Unix.st_size in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x00\x00";
      close_out oc;
      expect_decode_error ~layer:"journal" ~reason:Truncated ~offset:size
        (fun () -> read_with_decl path))

let test_truncation_offset_reported () =
  with_tmp (fun path ->
      write_events path Abi.x86_64 [ ("ASDOffEvent", Fx.value_a) ];
      let last = List.nth (record_offsets path) 1 in
      let size = (Unix.stat path).Unix.st_size in
      truncate_to path (size - 5);
      expect_decode_error ~layer:"journal" ~reason:Truncated ~offset:last
        (fun () -> read_with_decl path))

let test_unknown_kind_offset () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "OMFJRNL1";
      (* one record: len=3, kind 'X' (unknown), body "ab" *)
      output_string oc "\x00\x00\x00\x03Xab";
      close_out oc;
      expect_decode_error ~layer:"endpoint" ~reason:Bad_tag ~offset:8
        (fun () -> read_with_decl path))

let test_garbage_descriptor_payload () =
  (* A descriptor record whose payload is noise must surface as a
     decode error naming the offset, not a random decoder exception. *)
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "OMFJRNL1";
      let payload = "not a descriptor at all \x01\x02\x03" in
      let len = 1 + String.length payload in
      output_char oc (Char.chr ((len lsr 24) land 0xFF));
      output_char oc (Char.chr ((len lsr 16) land 0xFF));
      output_char oc (Char.chr ((len lsr 8) land 0xFF));
      output_char oc (Char.chr (len land 0xFF));
      output_char oc 'D';
      output_string oc payload;
      close_out oc;
      expect_decode_error ~layer:"descriptor" ~reason:Bad_magic ~offset:8
        (fun () -> read_with_decl path))

let test_bad_magic_detected () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTAJRNL and then some bytes";
      close_out oc;
      let reg = Registry.create Abi.x86_64 in
      try
        ignore (Journal.Reader.of_file path reg (Memory.create Abi.x86_64));
        Alcotest.fail "expected a decode error"
      with Decode.Error { layer = "journal"; reason = Bad_magic; _ } -> ())

let test_empty_journal () =
  with_tmp (fun path ->
      let writer, close = Journal.Writer.to_file path in
      ignore writer;
      close ();
      check int "no events" 0 (List.length (read_all path Abi.x86_64)))

let test_large_journal () =
  with_tmp (fun path ->
      let abi = Abi.x86_64 in
      let reg = Registry.create abi in
      let fmt = Registry.register reg Fx.decl_b in
      let mem = Memory.create abi in
      let addr = Omf_pbio.Native.store mem fmt Fx.value_b in
      let writer, close = Journal.Writer.to_file path in
      let n = 2000 in
      for _ = 1 to n do
        Journal.Writer.append writer mem fmt addr
      done;
      close ();
      let events = read_all path Abi.power_64 in
      check int "all events replayed" n (List.length events))

(* a reader whose registry lacks the journal's format gets Pbio's
   Unknown_format, not a corruption error: the file is sound *)
let test_unknown_format_propagates () =
  with_tmp (fun path ->
      write_events path Abi.x86_64 [ ("ASDOffEvent", Fx.value_a) ];
      let reg = Registry.create Abi.x86_64 in
      ignore (Registry.register reg Fx.decl_b);
      let reader, close =
        Journal.Reader.of_file path reg (Memory.create Abi.x86_64)
      in
      Fun.protect ~finally:close (fun () ->
          match Journal.Reader.next_value reader with
          | _ -> Alcotest.fail "expected Unknown_format"
          | exception Omf_pbio.Pbio.Unknown_format name ->
            check Alcotest.string "names the format" "ASDOffEvent" name))

let contains hay needle =
  Omf_testkit.Strings.replace ~sub:needle ~by:"" hay <> hay

(* a reader whose registry defines the journal's format incompatibly (one
   field's dimension differs) gets Convert's Field_mismatch, naming the
   format and the field: the file is sound, the schema is not its own *)
let test_incompatible_schema () =
  with_tmp (fun path ->
      write_events path Abi.x86_64 [ ("ASDOffEvent", Fx.value_a) ];
      let reg = Registry.create Abi.x86_64 in
      ignore
        (Registry.register reg
           (Ftype.declare "ASDOffEvent"
              [ ("cntrID", "string"); ("fltNum", "integer")
              ; ("off", "unsigned long[5]") ]));
      let reader, close =
        Journal.Reader.of_file path reg (Memory.create Abi.x86_64)
      in
      Fun.protect ~finally:close (fun () ->
          match Journal.Reader.next_value reader with
          | _ -> Alcotest.fail "expected Field_mismatch"
          | exception Omf_pbio.Convert.Field_mismatch m ->
            check bool (Printf.sprintf "%S names the format" m) true
              (contains m "ASDOffEvent");
            check bool (Printf.sprintf "%S names the field" m) true
              (contains m "\"off\"")))

(* a message frame whose descriptor never came is a corrupt file, at
   the message's offset (the magic's 8 bytes) *)
let test_message_before_descriptor () =
  with_tmp (fun path ->
      let abi = Abi.x86_64 in
      let fmt = Registry.register (Registry.create abi) Fx.decl_a in
      let mem = Memory.create abi in
      let msg = message ~kind:'M' mem fmt (Omf_pbio.Native.store mem fmt Fx.value_a) in
      let oc = open_out_bin path in
      output_string oc "OMFJRNL1";
      output_bytes oc (Omf_reactor.Frame.encode msg);
      close_out oc;
      expect_decode_error ~layer:"wire" ~reason:Inconsistent ~offset:8
        (fun () -> read_with_decl path))

(* replay resets the reader's memory after each record *)
let test_replay_memory_flat () =
  with_tmp (fun path ->
      let abi = Abi.x86_64 in
      let fmt = Registry.register (Registry.create abi) Fx.decl_a in
      let mem = Memory.create abi in
      let addr = Omf_pbio.Native.store mem fmt Fx.value_a in
      let writer, close = Journal.Writer.to_file path in
      let n = 10_000 in
      for _ = 1 to n do
        Journal.Writer.append writer mem fmt addr
      done;
      close ();
      let reg = Registry.create abi in
      ignore (Registry.register reg Fx.decl_a);
      let rmem = Memory.create abi in
      let reader, rclose = Journal.Reader.of_file path reg rmem in
      Fun.protect ~finally:rclose (fun () ->
          ignore (Journal.Reader.next_value reader);
          let first = Memory.allocated_bytes rmem in
          let rest = Journal.Reader.fold reader (fun k _ -> k + 1) 0 in
          check int "all records replayed" (n - 1) rest;
          check int "reader memory flat" first (Memory.allocated_bytes rmem)))

(* the file format, byte for byte: magic, then length-prefixed 'D'
   descriptor and 'M' message frames *)
let test_golden_bytes () =
  with_tmp (fun path ->
      let abi = Abi.x86_64 in
      let fmt = Registry.register (Registry.create abi) Fx.decl_a in
      let mem = Memory.create abi in
      let addr = Omf_pbio.Native.store mem fmt Fx.value_a in
      let writer, close = Journal.Writer.to_file path in
      Journal.Writer.append writer mem fmt addr;
      close ();
      let u32 n =
        String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF))
      in
      let frame kind body = u32 (1 + String.length body) ^ kind ^ body in
      let expected =
        "OMFJRNL1"
        ^ frame "D" (Omf_pbio.Format_codec.encode fmt)
        ^ frame "M" (Bytes.to_string (message mem fmt addr))
      in
      let got = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.string "journal bytes" expected got)

let prop_journal_roundtrip =
  QCheck.Test.make ~name:"journal replay preserves values (random formats)"
    ~count:100
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((writer_abi, fmt, v), reader_abi) ->
      with_tmp (fun path ->
          let mem = Memory.create writer_abi in
          let addr = Omf_pbio.Native.store mem fmt v in
          let sent = Omf_pbio.Native.load mem fmt addr in
          let writer, close = Journal.Writer.to_file path in
          Journal.Writer.append writer mem fmt addr;
          Journal.Writer.append writer mem fmt addr;
          close ();
          let reg = Registry.create reader_abi in
          ignore (Registry.register reg fmt.Format.decl);
          let reader, rclose =
            Journal.Reader.of_file path reg (Memory.create reader_abi)
          in
          Fun.protect ~finally:rclose (fun () ->
              let events =
                List.rev
                  (Journal.Reader.fold reader (fun acc ev -> ev :: acc) [])
              in
              List.length events = 2
              && List.for_all (fun (_, got) -> Value.equal sent got) events)))

let () =
  Alcotest.run "journal"
    [ ( "journal",
        [ Alcotest.test_case "cross-ABI replay" `Quick test_roundtrip_cross_abi
        ; Alcotest.test_case "descriptors written once" `Quick
            test_descriptors_written_once
        ; Alcotest.test_case "format upgrade mid-file" `Quick
            test_format_upgrade_mid_file
        ; Alcotest.test_case "corruption detected" `Quick test_corruption_detected
        ; Alcotest.test_case "torn length prefix detected" `Quick
            test_torn_length_prefix
        ; Alcotest.test_case "truncation reports byte offset" `Quick
            test_truncation_offset_reported
        ; Alcotest.test_case "unknown kind reports byte offset" `Quick
            test_unknown_kind_offset
        ; Alcotest.test_case "garbage descriptor wrapped with offset" `Quick
            test_garbage_descriptor_payload
        ; Alcotest.test_case "bad magic detected" `Quick test_bad_magic_detected
        ; Alcotest.test_case "empty journal" `Quick test_empty_journal
        ; Alcotest.test_case "large journal" `Quick test_large_journal
        ; Alcotest.test_case "unknown format is not corruption" `Quick
            test_unknown_format_propagates
        ; Alcotest.test_case "incompatible schema is not corruption" `Quick
            test_incompatible_schema
        ; Alcotest.test_case "message before its descriptor is corrupt" `Quick
            test_message_before_descriptor
        ; Alcotest.test_case "replay keeps memory flat" `Quick
            test_replay_memory_flat
        ; Alcotest.test_case "golden file bytes" `Quick test_golden_bytes ]
        @ [ QCheck_alcotest.to_alcotest prop_journal_roundtrip ] ) ]
