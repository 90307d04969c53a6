(** registryd: the versioned schema registry as a standalone daemon
    (doc/REGISTRY.md).

    Serves the binary frame protocol on [--port] (from a shell,
    [xml2wire register] and [xml2wire fetch] speak it) and Prometheus
    counters on [--metrics-port].
    With [--store DIR] every registration is persisted on the durable
    store machinery and recovered at startup; without it the registry
    is memory-only. [--compat] sets the registry-wide gate mode. *)

let setup_logs verbose =
  Omf_util.Log.set_level (if verbose then Omf_util.Log.Debug else Info)

let run port metrics_port host store compat verbose =
  setup_logs verbose;
  let module R = Omf_registry.Registry in
  match
    let store =
      Option.map (fun root -> Omf_store.Store.default_config ~root) store
    in
    let reg = R.create ?store ~mode:compat () in
    let srv = R.Server.start ~host ~port ?metrics_port reg in
    (reg, srv)
  with
  | exception Omf_store.Store.Store_error m ->
    `Error (false, Printf.sprintf "store: %s" m)
  | exception Unix.Unix_error (e, fn, "") ->
    `Error (false, Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Unix.Unix_error (e, fn, where) ->
    (* a busy port: "bind HOST:PORT" *)
    `Error (false, Printf.sprintf "%s %s: %s" fn where (Unix.error_message e))
  | exception Omf_reactor.Reactor.Resolve_error m -> `Error (false, m)
  | reg, srv ->
    Printf.printf "registryd: %d subject(s), mode %s, frames on %s:%d\n%!"
      (List.length (R.subjects reg))
      (R.compat_mode_to_string compat)
      host (R.Server.port srv);
    Option.iter
      (fun p ->
        Printf.printf "registryd: metrics on http://%s:%d/metrics\n%!" host p)
      (R.Server.metrics_port srv);
    (* serve until interrupted *)
    let rec forever () =
      Thread.delay 3600.0;
      forever ()
    in
    forever ()

let () =
  let port = ref 8091
  and metrics_port = ref None
  and host = ref "127.0.0.1"
  and store = ref None
  and compat = ref Omf_registry.Registry.Backward
  and verbose = ref false in
  let specs =
    [ ( "--port"
      , Arg.Set_int port
      , "PORT Binary frame protocol port (0 = ephemeral; default 8091)." )
    ; ("-p", Arg.Set_int port, "PORT Same as --port.")
    ; ( "--metrics-port"
      , Arg.Int (fun p -> metrics_port := Some p)
      , "PORT Also serve registry counters in Prometheus text format on GET \
         /metrics at this port." )
    ; ("--host", Arg.Set_string host, "HOST Address to bind (default 127.0.0.1).")
    ; ( "--store"
      , Arg.String (fun d -> store := Some d)
      , "DIR Persist registrations under this store root (recovered at \
         startup). Omit for a memory-only registry." )
    ; ( "--compat"
      , Omf_util.Cli.conv Omf_registry.Registry.compat_mode_of_string
          (( := ) compat)
      , "MODE Registry-wide compatibility gate: none, backward (the \
         default), forward or full." )
    ; ("--verbose", Arg.Set verbose, " Debug logging.")
    ; ("-v", Arg.Set verbose, " Same as --verbose.") ]
  in
  ignore
    (Omf_util.Cli.parse ~name:"registryd"
       ~doc:"registryd: versioned schema registry daemon" specs Sys.argv);
  Omf_util.Cli.exit_with ~name:"registryd"
    (run !port !metrics_port !host !store !compat !verbose)
