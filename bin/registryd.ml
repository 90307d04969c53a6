(** registryd: the versioned schema registry as a standalone daemon
    (doc/REGISTRY.md).

    Serves the binary frame protocol on [--port], the HTTP JSON surface
    on [--http-port], and Prometheus counters on [--metrics-port].
    With [--store DIR] every registration is persisted on the durable
    store machinery and recovered at startup; without it the registry
    is memory-only. [--compat] sets the registry-wide gate mode. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

let port_arg =
  Arg.(
    value & opt int 8091
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"Binary frame protocol port (0 = ephemeral).")

let http_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "http-port" ] ~docv:"PORT"
        ~doc:"Also serve the HTTP JSON surface on this port.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Also serve registry counters in Prometheus text format on \
           $(b,GET /metrics) at this port.")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persist registrations under this store root (recovered at \
           startup). Omit for a memory-only registry.")

let compat_conv =
  let parse s =
    match Omf_registry.Registry.compat_mode_of_string s with
    | Ok m -> Ok m
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun fmt m ->
       Format.pp_print_string fmt
         (Omf_registry.Registry.compat_mode_to_string m))

let compat_arg =
  Arg.(
    value
    & opt compat_conv Omf_registry.Registry.Backward
    & info [ "compat" ] ~docv:"MODE"
        ~doc:
          "Registry-wide compatibility gate: $(b,none), $(b,backward), \
           $(b,forward) or $(b,full).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")

let run port http_port metrics_port host store compat verbose =
  setup_logs verbose;
  let module R = Omf_registry.Registry in
  match
    let store =
      Option.map (fun root -> Omf_store.Store.default_config ~root) store
    in
    let reg = R.create ?store ~mode:compat () in
    let srv = R.Server.start ~host ~port ?http_port ?metrics_port reg in
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
      (fun p -> Printf.printf "registryd: HTTP JSON on http://%s:%d/\n%!" host p)
      (R.Server.http_port srv);
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
  let doc = "versioned schema registry daemon" in
  let info = Cmd.info "registryd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ port_arg $ http_port_arg $ metrics_port_arg
             $ host_arg $ store_arg $ compat_arg $ verbose_arg))))
