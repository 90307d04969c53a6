(** Bytes allocated per call on the client's per-event hot path, as one
    JSON object:

      dune exec bench/alloc.exe > run.json

    - per record shape bench/e2e sends (from its sender's ABI to its
      receiver's): the four PBIO entry points [Native.store],
      [Pbio.message], [Pbio.Receiver.receive] and [Native.load];
    - on the secure-compressed workload's message: [Compress.compress]
      (with a reused scratch) and the HMAC behind [Macframe.seal].

    Allocation is deterministic, so one run is enough; the numbers do not
    depend on the host's speed. *)

module Shapes = Omf_testkit.Shapes
module Alloc = Omf_testkit.Alloc

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
    Alloc.bytes_per_call ~iters:500 (fun () ->
        Omf_util.Sha256.hmac ~key:"bench-key" (Bytes.unsafe_to_string msg))
  in
  Printf.printf
    "{\n  \"ocaml\": \"%s\",\n  \"word_size\": %d,\n  \"shapes\": {\n%s\n  },\n\
    \  \"secure_frame\": {\"frame_B\": %d, \"compress_B\": %.1f, \"hmac_B\": %.1f}\n}\n"
    Sys.ocaml_version Sys.word_size
    (String.concat ",\n" (List.map row (Shapes.bench @ [ Shapes.strvar ])))
    (Bytes.length msg) compress hmac
