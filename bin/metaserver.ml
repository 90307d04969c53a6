(** metaserver: publish XML metadata documents over HTTP so that
    xml2wire-based applications can discover formats remotely — "in the
    same manner that web browsers retrieve other XML documents"
    (section 7).

    [metaserver DIR] serves every [*.xsd] in DIR, validating each on
    startup so clients never fetch a broken document.
    [--metrics-port P] additionally serves request counters in
    Prometheus text format on [GET /metrics]. *)

let setup_logs verbose =
  Omf_util.Log.set_level (if verbose then Omf_util.Log.Debug else Info)

let run dir port host metrics_port verbose =
  setup_logs verbose;
  let docs = Sys.readdir dir in
  let xsds =
    Array.to_list docs
    |> List.filter (fun f -> Filename.check_suffix f ".xsd")
    |> List.sort compare
  in
  if xsds = [] then `Error (false, Printf.sprintf "no .xsd files in %s" dir)
  else begin
    (* validate all documents up front *)
    let broken =
      List.filter_map
        (fun f ->
          let path = Filename.concat dir f in
          let ic = open_in_bin path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Omf_xschema.Schema.of_string text with
          | schema ->
            Printf.printf "  /%s: %d type(s): %s\n" f
              (List.length schema.Omf_xschema.Schema.types)
              (String.concat ", "
                 (List.map
                    (fun ct -> ct.Omf_xschema.Schema.ct_name)
                    schema.Omf_xschema.Schema.types));
            None
          | exception Omf_xschema.Schema.Schema_error m -> Some (f, m))
        xsds
    in
    match broken with
    | (f, m) :: _ -> `Error (false, Printf.sprintf "%s: %s" f m)
    | [] ->
      (* count every request through the directory handler so the
         server's traffic shows up on /metrics and in logs: totals,
         egress bytes, and a per-document request counter rendered as
         a labelled Prometheus series (doc.<name>.requests) *)
      let counters = Omf_util.Counters.create () in
      let dir_handler = Omf_httpd.Http.directory_handler dir in
      let handler ~path ~headers =
        Omf_util.Counters.incr counters "requests";
        let resp = dir_handler ~path ~headers in
        Omf_util.Counters.add counters "bytes_out"
          (String.length resp.Omf_httpd.Http.body);
        (if resp.Omf_httpd.Http.status = 200 then begin
           Omf_util.Counters.incr counters "documents_served";
           let name =
             match String.split_on_char '/' path with
             | [ ""; doc ] when doc <> "" -> doc
             | _ -> Filename.basename path
           in
           Omf_util.Counters.incr counters
             (Printf.sprintf "doc.%s.requests" name)
         end
         else Omf_util.Counters.incr counters "not_found");
        resp
      in
      (* the documents and the metrics share one loop; a busy port of
         either stops the start before anything is served *)
      let page p handler =
        (host, p, Omf_httpd.Http.connection handler)
      in
      let metrics =
        Omf_httpd.Http.metrics_handler
          [ ("metaserver", fun () -> Omf_util.Counters.dump counters) ]
      in
      match
        Omf_reactor.Server.start
          (page port handler
          :: Option.to_list (Option.map (fun p -> page p metrics) metrics_port))
      with
      | exception Unix.Unix_error (e, _, where) ->
        `Error (false, Printf.sprintf "bind %s: %s" where (Unix.error_message e))
      | exception Omf_reactor.Reactor.Resolve_error m ->
        `Error (false, Printf.sprintf "bind %s:%d: %s" host port m)
      | server ->
        let ports = Omf_reactor.Server.ports server in
        Printf.printf "metaserver: serving %d document(s) from %s on http://%s:%d/\n%!"
          (List.length xsds) dir host (List.hd ports);
        List.iter
          (Printf.printf "metaserver: metrics on http://%s:%d/metrics\n%!" host)
          (List.tl ports);
        (* serve until interrupted *)
        let rec forever () =
          Thread.delay 3600.0;
          forever ()
        in
        forever ()
  end

let () =
  let port = ref 8080
  and host = ref "127.0.0.1"
  and metrics_port = ref None
  and verbose = ref false in
  let specs =
    [ ("--port", Arg.Set_int port, "PORT TCP port (0 = ephemeral; default 8080).")
    ; ("-p", Arg.Set_int port, "PORT Same as --port.")
    ; ("--host", Arg.Set_string host, "HOST Address to bind (default 127.0.0.1).")
    ; ( "--metrics-port"
      , Arg.Int (fun p -> metrics_port := Some p)
      , "PORT Also serve request counters in Prometheus text format on GET \
         /metrics at this port." )
    ; ("--verbose", Arg.Set verbose, " Log every request.")
    ; ("-v", Arg.Set verbose, " Same as --verbose.") ]
  in
  let name = "metaserver" in
  let args =
    Omf_util.Cli.parse ~name
      ~doc:
        "metaserver: HTTP metadata server for xml2wire discovery; DIR is a \
         directory of .xsd metadata documents."
      ~args:[ "DIR" ] specs Sys.argv
  in
  let dir = args.(0) in
  Omf_util.Cli.exit_with ~name
    (if Sys.file_exists dir && Sys.is_directory dir then
       run dir !port !host !metrics_port !verbose
     else `Error (false, Printf.sprintf "DIR argument: no '%s' directory" dir))
