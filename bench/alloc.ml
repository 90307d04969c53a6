(** Bytes allocated per call on the client's per-event hot path, as one
    JSON object:

      dune exec bench/alloc.exe > run.json

    - per record shape bench/e2e sends (from its sender's ABI to its
      receiver's): the four PBIO entry points [Native.store],
      [Pbio.message], [Pbio.Receiver.receive] and [Native.load];
    - on the secure-compressed workload's message: [Compress.compress]
      (with a reused scratch) and the HMAC an authenticated link pays
      per frame, [Macframe.seal_header] from the key's precomputed
      midstates;
    - per shape: the sequence stamp bench/e2e's [Spec.set_seq] puts on
      each event ([Value.set_field], nested for durable-cd) and the
      read-back [Spec.get_seq] does on delivery ([Value.field_exn]);
    - per shape: one [Endpoint.Sender.send], which builds the event
      frame (kind byte plus message) in the memory's lent buffer;
    - per shape and negotiated frame mode (plain, mac, comp, mac+comp):
      one [Link.send] and one [Link.recv] of the event frame on the
      framed client link, over a socketpair;
    - the words a [Compress.scratch] holds ([Obj.reachable_words]) when
      fresh, and after compressing one event frame of each shape;
    - per frame mode: the words a relay shard allocates per event it
      relays from one publisher to one subscriber, paper-a's event
      frames sent back to back ({!Omf_testkit.Relaypair}); and again
      ([relay_small]) for a 74 B paper-a frame whose strings are
      empty, so that one read holds more frames.

    Client allocation is deterministic, so one run is enough; the numbers
    do not depend on the host's speed. The relay's words include each
    event's share of the loop rounds that read it, which a loaded host,
    reading smaller batches, can raise by a few words. *)

module Shapes = Omf_testkit.Shapes
module Alloc = Omf_testkit.Alloc
module Linkpair = Omf_testkit.Linkpair

let event_frame = Shapes.event_frame

let link_row (s : Shapes.t) =
  let fr = event_frame s in
  let mode (m : Linkpair.mode) =
    let t = Linkpair.create m in
    let send = Linkpair.send_bytes ~iters:500 t fr in
    let recv = Linkpair.recv_bytes ~iters:500 t fr in
    let wire = Linkpair.frame_length t fr in
    Linkpair.close t;
    Printf.sprintf {|"%s": {"wire_B": %d, "send_B": %.1f, "recv_B": %.1f}|} m.name
      wire send recv
  in
  Printf.sprintf {|    "%s": {"frame_B": %d,
      %s}|} s.name (Bytes.length fr)
    (String.concat ",\n      " (List.map mode Linkpair.modes))

(* the field path bench/e2e's [Spec] stamps each event's sequence
   number at, for the workload that sends the shape *)
let seq_path (s : Shapes.t) =
  match s.name with
  | "paper-a" | "secure-a1k" -> [ "fltNum" ]
  | "science-16k" -> [ "seq" ]
  | "durable-cd" -> [ "one"; "fltNum" ]
  | name -> invalid_arg ("seq_path: " ^ name)

let rec set_seq v path seq =
  match path with
  | [] -> invalid_arg "set_seq: empty path"
  | [ f ] -> Omf_pbio.Value.(set_field v f (Int (Int64.of_int seq)))
  | f :: rest ->
    Omf_pbio.Value.(set_field v f (set_seq (field_exn v f) rest seq))

let rec get_seq v = function
  | [] -> Int64.to_int (Omf_pbio.Value.to_int64 v)
  | f :: rest -> get_seq (Omf_pbio.Value.field_exn v f) rest

(* per shape: [f shape]'s bytes per call *)
let shape_row f =
  String.concat ", "
    (List.map
       (fun (s : Shapes.t) ->
         Printf.sprintf {|"%s": %.1f|} s.name
           (Alloc.bytes_per_call ~iters:500 (fun () -> f s)))
       Shapes.bench)

(* [Endpoint.Sender.send] of the shape's record on a link that drops
   every frame: the cost of framing the message *)
let endpoint_row (s : Shapes.t) =
  let fmt = Shapes.register s.send_abi s in
  let mem = Omf_machine.Memory.create s.send_abi in
  let null =
    { Omf_transport.Link.send = ignore; recv = (fun () -> None); close = ignore }
  in
  let sender = Omf_transport.Endpoint.Sender.create null mem in
  let addr = Omf_pbio.Native.store mem fmt s.value in
  Printf.sprintf {|"%s": %.1f|} s.name
    (Alloc.bytes_per_call ~iters:500 (fun () ->
         Omf_transport.Endpoint.Sender.send sender mem fmt addr))

(* paper-a's event with its five strings empty: a 74 B frame, about
   885 to a 64 KiB read *)
let small_frame () =
  let paper_a = List.hd Shapes.bench in
  let empty v f = Omf_pbio.Value.(set_field v f (String "")) in
  event_frame
    { paper_a with
      value =
        List.fold_left empty paper_a.value
          [ "cntrID"; "arln"; "equip"; "org"; "dest" ] }

let relay_row frame =
  let mode (m : Linkpair.mode) =
    Printf.sprintf {|"%s": %.1f|} m.name
      (Omf_testkit.Relaypair.words_per_event ~events:5_000 m frame)
  in
  Printf.sprintf {|{"frame_B": %d, "words_per_event": {%s}}|}
    (Bytes.length frame)
    (String.concat ", " (List.map mode Linkpair.modes))

let scratch_row () =
  let words s = Obj.reachable_words (Obj.repr s) in
  let shape (s : Shapes.t) =
    let fr = event_frame s in
    let scratch = Omf_compress.Compress.scratch () in
    ignore (Omf_compress.Compress.compress ~scratch fr);
    Printf.sprintf {|"%s": {"frame_B": %d, "words": %d}|} s.name
      (Bytes.length fr) (words scratch)
  in
  Printf.sprintf {|{"fresh_words": %d,
    %s}|}
    (words (Omf_compress.Compress.scratch ()))
    (String.concat ",\n    " (List.map shape Shapes.bench))

let () =
  let row (s : Shapes.t) =
    let m = Shapes.measure ~iters:500 s in
    Printf.sprintf
      {|    "%s": {"send_abi": "%s", "recv_abi": "%s", "message_B": %d, "elements": %d,
      "loaded_value_B": %d, "bind_B": %.1f, "encode_B": %.1f, "receive_B": %.1f, "load_B": %.1f}|}
      s.name s.send_abi.Omf_machine.Abi.name s.recv_abi.Omf_machine.Abi.name
      m.message_length m.elements m.value_bytes m.bind m.encode m.receive m.load
  in
  let secure = List.nth Shapes.bench 3 in
  let fmt = Shapes.register secure.send_abi secure in
  let mem = Omf_machine.Memory.create secure.send_abi in
  let msg =
    Omf_pbio.Pbio.message mem fmt (Omf_pbio.Native.store mem fmt secure.value)
  in
  let scratch = Omf_compress.Compress.scratch () in
  let compress =
    Alloc.bytes_per_call ~iters:500 (fun () ->
        Omf_compress.Compress.compress ~scratch msg)
  in
  let hmac =
    let mac = Omf_transport.Macframe.state ~key:"bench-key" in
    let hdr = Bytes.create Omf_transport.Macframe.header_length in
    Alloc.bytes_per_call ~iters:500 (fun () ->
        Omf_transport.Macframe.seal_header mac hdr msg 0 (Bytes.length msg))
  in
  Printf.printf
    "{\n  \"ocaml\": \"%s\",\n  \"word_size\": %d,\n  \"shapes\": {\n%s\n  },\n\
    \  \"secure_frame\": {\"frame_B\": %d, \"compress_B\": %.1f, \"hmac_B\": %.1f},\n\
    \  \"set_field_B\": {%s},\n\
    \  \"field_B\": {%s},\n\
    \  \"endpoint_send_B\": {%s},\n\
    \  \"link\": {\n%s\n  },\n\
    \  \"scratch\": %s,\n\
    \  \"relay\": %s,\n\
    \  \"relay_small\": %s\n}\n"
    Sys.ocaml_version Sys.word_size
    (String.concat ",\n" (List.map row (Shapes.bench @ [ Shapes.strvar ])))
    (Bytes.length msg) compress hmac
    (let seq = ref 0 in
     shape_row (fun s ->
         incr seq;
         set_seq s.value (seq_path s) !seq))
    (shape_row (fun s -> get_seq s.value (seq_path s)))
    (String.concat ", " (List.map endpoint_row Shapes.bench))
    (String.concat ",\n" (List.map link_row Shapes.bench))
    (scratch_row ())
    (relay_row (event_frame (List.hd Shapes.bench)))
    (relay_row (small_frame ()))
