(** Tests for global format-descriptor ids (doc/REGISTRY.md): the
    registry assigns one dense id per distinct descriptor, senders stamp
    it into message headers, receivers resolve it through the caching
    resolver, and ids survive a registry restart. Kept apart from
    test_registry.ml so each suite keeps its own short group names. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Registry = Omf_registry.Registry
module Store = Omf_store.Store
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let assoc key stats = Option.value ~default:0 (List.assoc_opt key stats)

let with_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-descriptor-ids-%d-%d" (Unix.getpid ())
         (Random.int 1000000))
  in
  let rec rm path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

module Formats = Omf_pbio.Pbio.Registry

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

(* a registry served on an ephemeral port: [f registry server port] *)
let with_server ?store f =
  let reg = Registry.create ?store () in
  let srv = Registry.Server.start ~port:0 reg in
  Fun.protect
    ~finally:(fun () ->
      Registry.Server.shutdown srv;
      Registry.close reg)
    (fun () -> f reg srv (Registry.Server.port srv))

let with_client port f =
  let c = Registry.Client.connect ~port in
  Fun.protect ~finally:(fun () -> Registry.Client.close c) (fun () -> f c)

let test_descriptor_register_and_fetch () =
  with_server @@ fun reg _ port ->
  with_client port @@ fun c ->
  let a, b, _, _ = Fx.register_all (Formats.create Abi.x86_64) in
  let id_a = Registry.Client.register_descriptor c a in
  let id_b = Registry.Client.register_descriptor c b in
  check (Alcotest.list int) "distinct dense ids" [ 1; 2 ] [ id_a; id_b ];
  check bool "two entries" true (Registry.descriptor reg 3 = None);
  (match Registry.Client.descriptor c id_a with
  | Some blob ->
    check string "descriptor survives"
      (Format.layout_signature a)
      (Format.layout_signature (Format_codec.decode blob))
  | None -> Alcotest.fail "fetch failed");
  check bool "unknown id is None" true (Registry.Client.descriptor c 9999 = None)

let test_descriptor_idempotent () =
  with_server @@ fun reg _ port ->
  with_client port @@ fun c1 ->
  with_client port @@ fun c2 ->
  (* two clients registering the same descriptor get the same id *)
  let a, _, _, _ = Fx.register_all (Formats.create Abi.sparc_32) in
  let id1 = Registry.Client.register_descriptor c1 a in
  check int "same descriptor, same id" id1
    (Registry.Client.register_descriptor c2 a);
  check bool "one entry" true (Registry.descriptor reg 2 = None);
  (* the same logical format under a different ABI is a different
     descriptor, hence a different id *)
  let a64, _, _, _ = Fx.register_all (Formats.create Abi.x86_64) in
  check bool "different layout, different id" true
    (Registry.Client.register_descriptor c1 a64 <> id1)

let test_descriptor_rejects_garbage () =
  with_server @@ fun reg _ port ->
  (* speak the protocol by hand with a corrupt blob *)
  let link = Tcp.connect ~port () in
  Link.send link (Bytes.of_string "Dnot-a-descriptor");
  (match Link.recv link with
  | Some reply -> check Alcotest.char "rejected" 'e' (Bytes.get reply 0)
  | None -> Alcotest.fail "no reply");
  check bool "nothing registered" true (Registry.descriptor reg 1 = None);
  Link.close link

let test_descriptor_end_to_end () =
  (* sender and receiver never exchange descriptors directly: the sender
     stamps a global id, the receiver resolves it through the registry *)
  with_server @@ fun _ _ port ->
  with_client port @@ fun sc ->
  with_client port @@ fun rc ->
  let sfmt = Formats.register (Formats.create Abi.x86_64) Fx.decl_b in
  let gid = Registry.Client.register_descriptor sc sfmt in
  let smem = Memory.create Abi.x86_64 in
  let addr = Native.store smem sfmt Fx.value_b in
  let msg = message ~id:gid smem sfmt addr in
  let rreg = Formats.create Abi.sparc_32 in
  ignore (Formats.register rreg Fx.decl_b);
  let receiver =
    Receiver.create
      ~resolve:(Registry.Resolver.descriptor (Registry.Resolver.create rc))
      rreg (Memory.create Abi.sparc_32)
  in
  let _, received = Receiver.receive_value receiver msg in
  check value_testable "value via a global id" (Native.load smem sfmt addr)
    received;
  (* second message: the resolved format is learned, no further lookup *)
  let _, received2 = Receiver.receive_value receiver msg in
  check value_testable "cached resolution" received received2;
  check int "one resolver lookup for two messages" 1
    (Receiver.stats receiver).resolver_lookups

let test_descriptor_unknown_id () =
  with_server @@ fun _ _ port ->
  with_client port @@ fun c ->
  let sfmt = Formats.register (Formats.create Abi.x86_64) Fx.decl_a in
  let smem = Memory.create Abi.x86_64 in
  let msg = message ~id:424242 smem sfmt (Native.store smem sfmt Fx.value_a) in
  let rreg = Formats.create Abi.x86_64 in
  ignore (Formats.register rreg Fx.decl_a);
  let receiver =
    Receiver.create
      ~resolve:(Registry.Resolver.descriptor (Registry.Resolver.create c))
      rreg (Memory.create Abi.x86_64)
  in
  match Receiver.receive receiver msg with
  | _ -> Alcotest.fail "expected Unknown_format"
  | exception Unknown_format _ -> ()

let test_descriptor_server_death () =
  with_server @@ fun _ srv port ->
  with_client port @@ fun c ->
  let a, _, _, _ = Fx.register_all (Formats.create Abi.x86_64) in
  let gid = Registry.Client.register_descriptor c a in
  let r = Registry.Resolver.create c in
  check bool "resolved while up" true (Registry.Resolver.descriptor r gid <> None);
  Registry.Server.shutdown srv;
  (* cached entries keep working *)
  check bool "cached id still resolves" true
    (Registry.Resolver.descriptor r gid <> None);
  (* uncached lookups degrade to None (Unknown_format at the receiver),
     not a crash *)
  check bool "uncached id degrades to None" true
    (Registry.Resolver.descriptor r 777 = None)

(* Ids sit in message headers and journals, so they must outlive the
   process that issued them. *)
let test_descriptor_ids_survive_restart () =
  with_root @@ fun root ->
  let store = Store.default_config ~root in
  let fmts = Formats.create Abi.x86_64 in
  let a, b, c, _ = Fx.register_all fmts in
  let blob_a = Format_codec.encode a and blob_b = Format_codec.encode b in
  let reg = Registry.create ~store () in
  let id_a = Registry.register_descriptor reg blob_a in
  let id_b = Registry.register_descriptor reg blob_b in
  ignore (Registry.register reg ~subject:"flights" Fx.schema_a);
  Registry.close reg;
  with_server ~store @@ fun reg _ port ->
  check int "descriptors recovered" 2
    (assoc "recovered_descriptors" (Registry.stats reg));
  check (Alcotest.option string) "id -> blob after restart" (Some blob_a)
    (Registry.descriptor reg id_a);
  check int "re-registration keeps the id" id_b
    (Registry.register_descriptor reg blob_b);
  check int "the next id continues the sequence" 3
    (Registry.register_descriptor reg (Format_codec.encode c));
  check int "versions recovered beside descriptors" 1
    (List.length (Registry.versions reg "flights"));
  with_client port @@ fun cl ->
  check (Alcotest.option string) "served over the wire after restart"
    (Some blob_b)
    (Registry.Client.descriptor cl id_b)

(* After the server dies the first request on a client link sees EOF;
   the next write meets EPIPE/ECONNRESET. Every such failure must reach
   the resolver as an outage (None, counted), never as a raw
   [Unix_error] escaping into a receive path. *)
let test_resolver_survives_transport_failures () =
  with_server @@ fun _ srv port ->
  with_client port @@ fun c ->
  let r = Registry.Resolver.create c in
  Registry.Server.shutdown srv;
  Thread.delay 0.05;
  check bool "first uncached resolve is None" true
    (Registry.Resolver.resolve r ~subject:"flights" `Latest = None);
  check bool "second uncached resolve is None" true
    (Registry.Resolver.resolve r ~subject:"weather" `Latest = None);
  check bool "uncached descriptor is None" true
    (Registry.Resolver.descriptor r 1 = None);
  check int "every outage counted" 3 (assoc "errors" (Registry.Resolver.stats r))

let () =
  Random.self_init ();
  Alcotest.run "descriptor_ids"
    (* the "protocol" and "end-to-end" groups keep the case names these
       checks have always had, so their test ids stay stable *)
    [ ( "protocol"
      , [ Alcotest.test_case "register and fetch" `Quick
            test_descriptor_register_and_fetch
        ; Alcotest.test_case "registration idempotent" `Quick
            test_descriptor_idempotent
        ; Alcotest.test_case "garbage descriptors rejected" `Quick
            test_descriptor_rejects_garbage ] )
    ; ( "end-to-end"
      , [ Alcotest.test_case "messages with global ids" `Quick
            test_descriptor_end_to_end
        ; Alcotest.test_case "unknown id fails cleanly" `Quick
            test_descriptor_unknown_id
        ; Alcotest.test_case "server death degrades gracefully" `Quick
            test_descriptor_server_death ] )
    ; ( "descriptors"
      , [ Alcotest.test_case "ids survive a registry restart" `Quick
            test_descriptor_ids_survive_restart
        ; Alcotest.test_case "resolver survives transport failures" `Quick
            test_resolver_survives_transport_failures ] ) ]
