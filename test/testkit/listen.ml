(** Listening-socket checks shared by the server suites. *)

(** Descriptors this process has open. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(** [with_busy_port f] runs [f port] while a listener holds [port]. *)
let with_busy_port f =
  let busy, port = Omf_reactor.Reactor.listener ~port:0 () in
  Fun.protect ~finally:(fun () -> Unix.close busy) (fun () -> f port)

(** [refused_without_leak ~rounds starts] runs every named start
    [rounds] times: each run must raise [EADDRINUSE], and together they
    must leave the process's descriptor count as they found it. *)
let refused_without_leak ~rounds starts =
  let before = open_fds () in
  for _ = 1 to rounds do
    List.iter
      (fun (name, start) ->
        match start () with
        | () -> Alcotest.failf "%s started on a busy port" name
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ())
      starts
  done;
  Alcotest.(check int) "open descriptors unchanged" before (open_fds ())

(** [rebind port] fails unless nothing listens on [port] any more. *)
let rebind port =
  let sock, _ = Omf_reactor.Reactor.listener ~port () in
  Unix.close sock
