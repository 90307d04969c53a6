(** Tests for the mini HTTP server/client and HTTP-based remote metadata
    discovery (the paper's section 7 future work, realised). *)

open Omf_machine
open Omf_xml2wire
module Http = Omf_httpd.Http
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let str = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

let with_server table f =
  let server = Http.serve_table ~port:0 table in
  Fun.protect ~finally:(fun () -> Http.shutdown server) (fun () -> f server)

let test_get_roundtrip () =
  with_server [ ("/flight.xsd", Fx.schema_a); ("/hello", "hi") ] (fun server ->
      check str "document body" Fx.schema_a
        (Http.get ~port:(Http.port server) ~path:"/flight.xsd" ());
      check str "second path" "hi"
        (Http.get ~port:(Http.port server) ~path:"/hello" ()))

let test_404 () =
  with_server [] (fun server ->
      try
        ignore (Http.get ~port:(Http.port server) ~path:"/nope" ());
        Alcotest.fail "expected Http_error"
      with Http.Http_error _ -> ())

(* A port guaranteed to refuse connections for the duration of [f]: we
   hold it bound (so no parallel test can take it) but never listen. *)
let with_dead_port f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Fun.protect ~finally:(fun () -> Unix.close sock) (fun () -> f port)

let test_connection_refused () =
  with_dead_port (fun port ->
      try
        ignore (Http.get ~port ~path:"/x" ());
        Alcotest.fail "expected Http_error"
      with Http.Http_error _ -> ())

let test_concurrent_requests () =
  with_server [ ("/d.xsd", Fx.schema_b) ] (fun server ->
      let results = Array.make 8 "" in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun i ->
                results.(i) <- Http.get ~port:(Http.port server) ~path:"/d.xsd" ())
              i)
      in
      List.iter Thread.join threads;
      Array.iter (fun r -> check str "every thread got the document" Fx.schema_b r) results)

let test_metrics_endpoint () =
  let counters = Omf_util.Counters.create () in
  Omf_util.Counters.add counters "frames_in" 42;
  Omf_util.Counters.incr counters "weird.name-x";
  let server =
    Http.serve ~port:0
      (Http.metrics_handler
         [ ("relay", fun () -> Omf_util.Counters.dump counters) ])
  in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let body = Http.get ~port:(Http.port server) ~path:"/metrics" () in
      let lines = String.split_on_char '\n' body in
      check bool "prometheus counter line" true
        (List.mem "omf_relay_frames_in 42" lines);
      check bool "names sanitized to [a-zA-Z0-9_]" true
        (List.mem "omf_relay_weird_name_x 1" lines);
      (* non-metrics paths 404 *)
      (try
         ignore (Http.get ~port:(Http.port server) ~path:"/other" ());
         Alcotest.fail "expected Http_error"
       with Http.Http_error _ -> ()))

let test_serve_directory () =
  let dir = Filename.temp_file "omf" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "flight.xsd" in
  let oc = open_out path in
  output_string oc Fx.schema_a;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let server = Http.serve ~port:0 (Http.directory_handler dir) in
      Fun.protect
        ~finally:(fun () -> Http.shutdown server)
        (fun () ->
          check str "served from directory" Fx.schema_a
            (Http.get ~port:(Http.port server) ~path:"/flight.xsd" ());
          (* traversal and non-xsd requests rejected *)
          (try
             ignore (Http.get ~port:(Http.port server) ~path:"/flight.txt" ());
             Alcotest.fail "expected 404 for non-xsd"
           with Http.Http_error _ -> ());
          try
            ignore (Http.get ~port:(Http.port server) ~path:"/../etc/passwd" ());
            Alcotest.fail "expected 404 for traversal"
          with Http.Http_error _ -> ()))

(* The directory handler's traversal hardening, status by status:
   escapes are decoded before any check (%2e%2e can't smuggle a ".."),
   escape attempts are 403, things that merely aren't served here are
   404, and served documents carry text/xml. *)
let test_directory_handler_hardening () =
  let dir = Filename.temp_file "omf" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "flight.xsd" in
  let oc = open_out path in
  output_string oc Fx.schema_a;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let server = Http.serve ~port:0 (Http.directory_handler dir) in
      Fun.protect
        ~finally:(fun () -> Http.shutdown server)
        (fun () ->
          let port = Http.port server in
          let status ?(meth = "GET") p =
            (Http.request ~port ~meth ~path:p ()).Http.status
          in
          let ok = Http.request ~port ~meth:"GET" ~path:"/flight.xsd" () in
          check int "served document is 200" 200 ok.Http.status;
          check str "served with text/xml" "text/xml" ok.Http.content_type;
          check str "body intact" Fx.schema_a ok.Http.body;
          (* escape attempts are 403, in every spelling *)
          check int "dot-dot segment" 403 (status "/../etc/passwd");
          check int "nested dot-dot" 403 (status "/a/../../flight.xsd");
          check int "percent-encoded dot-dot" 403
            (status "/%2e%2e/etc/passwd");
          check int "double slash (absolute)" 403 (status "//etc/passwd");
          (* things that merely don't exist here are 404 *)
          check int "missing document" 404 (status "/missing.xsd");
          check int "non-xsd name" 404 (status "/flight.txt");
          check int "subdirectory" 404 (status "/sub/flight.xsd");
          (* malformed or non-HTTP-shaped requests are 400 *)
          check int "malformed escape" 400 (status "/%zz.xsd");
          check int "relative path" 400 (status "flight.xsd");
          check int "POST refused by the GET-only adapter" 400
            (status ~meth:"POST" "/flight.xsd");
          (* percent-decoding also works in the benign direction *)
          check int "encoded benign name decodes" 200
            (status "/%66light.xsd")))

(* A raw-socket server that advertises Content-Length [claim] but sends
   only [body] and then either closes or holds the connection open —
   the misbehaving peer the client's body reader must survive. *)
let with_short_body_server ~claim ~body ~close_after f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 1;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop = ref false in
  let th =
    Thread.create
      (fun () ->
        match Unix.accept sock with
        | fd, _ ->
          (* drain the request so our close is a clean FIN, not an RST *)
          (try ignore (Unix.read fd (Bytes.create 4096) 0 4096)
           with Unix.Unix_error _ -> ());
          let resp =
            Printf.sprintf
              "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" claim body
          in
          ignore (Unix.write_substring fd resp 0 (String.length resp));
          if close_after then Unix.close fd
          else begin
            (* hold the connection open with the body short *)
            while not !stop do
              Thread.delay 0.02
            done;
            Unix.close fd
          end
        | exception Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Unix.close sock;
      Thread.join th)
    (fun () -> f port)

let test_truncated_body_is_typed_error () =
  (* server closes after 5 of 100 promised bytes: the client must raise
     a typed truncation error carrying both byte counts, not return a
     silent short body or a bare end-of-stream *)
  with_short_body_server ~claim:100 ~body:"hello" ~close_after:true
    (fun port ->
      match Http.get ~port ~path:"/doc" () with
      | _ -> Alcotest.fail "expected Http_error on truncated body"
      | exception Http.Http_error msg ->
        check bool
          (Printf.sprintf "message names the shortfall (%s)" msg)
          true
          (Omf_testkit.Strings.replace ~sub:"truncated body: got 5 of 100 bytes"
             ~by:"" msg
          <> msg))

let test_short_body_held_open_times_out () =
  (* same shortfall but the server holds the socket: with a timeout the
     client must surface a deadline error instead of hanging forever *)
  with_short_body_server ~claim:100 ~body:"hello" ~close_after:false
    (fun port ->
      match Http.get ~port ~path:"/doc" ~timeout_s:0.3 () with
      | _ -> Alcotest.fail "expected Http_error on stalled body"
      | exception Http.Http_error msg ->
        check bool (Printf.sprintf "timeout surfaced (%s)" msg) true
          (Omf_testkit.Strings.replace ~sub:"timeout" ~by:"" msg <> msg))

(* ------------------------------------------------------------------ *)
(* HTTP discovery: the xml2wire use case                                *)
(* ------------------------------------------------------------------ *)

let test_discovery_over_http () =
  with_server [ ("/flight.xsd", Fx.schema_a) ] (fun server ->
      let catalog = Catalog.create Abi.x86_64 in
      let outcome =
        Discovery.discover catalog
          [ Discovery.from_fetcher ~label:"http://127.0.0.1/flight.xsd"
              (Http.fetcher ~port:(Http.port server) ~path:"/flight.xsd" ()) ]
      in
      check int "one format from HTTP" 1 (List.length outcome.Discovery.formats);
      check bool "registered" true (Option.is_some (Catalog.find catalog "ASDOffEvent")))

let test_discovery_http_down_falls_back_to_compiled () =
  (* the paper's fault-tolerance story end-to-end: metadata server dead,
     compiled-in formats keep the system limping along *)
  with_dead_port (fun port ->
      let catalog = Catalog.create Abi.x86_64 in
      let outcome =
        Discovery.discover catalog
          [ Discovery.from_fetcher ~label:"http://dead-metaserver/flight.xsd"
              (Http.fetcher ~port ~path:"/flight.xsd" ())
          ; Discovery.compiled ~label:"compiled-in" [ Fx.decl_a ] ]
      in
      check str "fallback used" "compiled-in" outcome.Discovery.source;
      check bool "still functional" true (Option.is_some (Catalog.find catalog "ASDOffEvent")))

let test_metadata_change_via_http () =
  (* re-discovery over HTTP: server starts serving an upgraded document *)
  let current = ref Fx.schema_a in
  let server =
    Http.serve ~port:0 (fun ~path:_ ~headers:_ -> Http.ok !current)
  in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let catalog = Catalog.create Abi.x86_64 in
      let w =
        Discovery.watch catalog
          [ Discovery.from_fetcher ~label:"http"
              (Http.fetcher ~port:(Http.port server) ~path:"/flight.xsd" ()) ]
      in
      check bool "initial discovery" true (Option.is_some (Catalog.find catalog "ASDOffEvent"));
      check bool "no spurious refresh" true (Discovery.refresh w = None);
      current :=
        Omf_testkit.Strings.replace
          ~sub:{|<xsd:element name="eta" type="xsd:unsigned-long" />|}
          ~by:{|<xsd:element name="eta" type="xsd:unsigned-long" />
                <xsd:element name="gate" type="xsd:string" />|}
          Fx.schema_a;
      match Discovery.refresh w with
      | Some _ ->
        let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
        check bool "upgraded over HTTP" true
          (Option.is_some (Omf_pbio.Format.find_field fmt "gate"))
      | None -> Alcotest.fail "HTTP change not detected")

let () =
  Alcotest.run "httpd"
    [ ( "http",
        [ Alcotest.test_case "GET round-trip" `Quick test_get_roundtrip
        ; Alcotest.test_case "404" `Quick test_404
        ; Alcotest.test_case "connection refused" `Quick test_connection_refused
        ; Alcotest.test_case "concurrent requests" `Quick test_concurrent_requests
        ; Alcotest.test_case "directory serving" `Quick test_serve_directory
        ; Alcotest.test_case "directory handler hardening" `Quick
            test_directory_handler_hardening
        ; Alcotest.test_case "prometheus /metrics" `Quick test_metrics_endpoint
        ; Alcotest.test_case "truncated body is a typed error" `Quick
            test_truncated_body_is_typed_error
        ; Alcotest.test_case "short body held open times out" `Quick
            test_short_body_held_open_times_out ] )
    ; ( "discovery",
        [ Alcotest.test_case "discover over HTTP" `Quick test_discovery_over_http
        ; Alcotest.test_case "HTTP down -> compiled fallback" `Quick
            test_discovery_http_down_falls_back_to_compiled
        ; Alcotest.test_case "metadata change via HTTP" `Quick
            test_metadata_change_via_http ] ) ]
