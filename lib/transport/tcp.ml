(** Real TCP transport (loopback or LAN): length-prefixed byte messages
    over Unix sockets, satisfying {!Link.t}. Used by the runnable example
    binaries; simulations and benchmarks prefer {!Loopback} / {!Netsim}
    for determinism. *)

module Frame = Omf_reactor.Frame

exception Tcp_error of string

let tcp_error fmt = Printf.ksprintf (fun s -> raise (Tcp_error s)) fmt

(* a write to a peer that vanished must surface as EPIPE (an exception
   our reconnect/doom paths handle), not kill the whole process — the
   default SIGPIPE disposition would. Set once, at first use of TCP. *)
let () =
  if not Sys.win32 then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* SO_RCVTIMEO/SO_SNDTIMEO expiry surfaces as EAGAIN/EWOULDBLOCK from a
   blocking read/write — translate it to Link.Timeout *)
let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n =
        try Unix.read fd buf off len
        with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          raise Link.Timeout
      in
      if n = 0 then raise End_of_file;
      go (off + n) (len - n)
    end
  in
  go off len

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n =
        try Unix.write fd buf off len
        with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          raise Link.Timeout
      in
      go (off + n) (len - n)
    end
  in
  go off len

(** [link_of_fd fd] wraps a connected socket, with [TCP_NODELAY] set.
    [io_timeout_s] arms
    [SO_RCVTIMEO]/[SO_SNDTIMEO]: a receive or send that stalls past the
    deadline raises {!Link.Timeout} instead of blocking forever. *)
let link_of_fd ?io_timeout_s (fd : Unix.file_descr) : Link.t =
  (* small frames (acks, control replies, events) must not wait for the
     peer's delayed ACK behind Nagle's algorithm *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (match io_timeout_s with
  | Some t when t > 0.0 -> (
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO t
    with Unix.Unix_error _ -> ())
  | _ -> ());
  let closed = ref false in
  let send msg =
    if !closed then raise Link.Closed;
    (* header + body in one buffer, one write: no Nagle interaction *)
    let b = Frame.encode msg in
    really_write fd b 0 (Bytes.length b)
  in
  let recv () =
    if !closed then None
    else
      match
        let hdr = Bytes.create Frame.header_length in
        really_read fd hdr 0 Frame.header_length;
        let len = Frame.read_header hdr 0 in
        if len < 0 || len > Frame.default_max_frame then
          tcp_error "bad frame length %d" len;
        let msg = Bytes.create len in
        really_read fd msg 0 len;
        msg
      with
      | msg -> Some msg
      | exception End_of_file -> None
  in
  let close () =
    if not !closed then begin
      closed := true;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  { Link.send; recv; close }

(** [listener ~port ()] binds and listens without spawning any thread —
    for callers running their own accept/event loop ({!Omf_relay}).
    Returns the listening socket and the actually bound port (useful
    with [~port:0]). *)
let listener ?(host = "127.0.0.1") ?(backlog = 64) ~port () :
    Unix.file_descr * int =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock backlog;
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (sock, bound_port)

(** A running [serve] instance. The acceptor is a {!Omf_reactor.Reactor}
    loop in one thread; each accepted connection runs its (blocking)
    handler in its own thread, and — unlike the old [listen], which
    leaked both — {!shutdown} joins all of them. *)
type server = {
  sock : Unix.file_descr;
  srv_port : int;
  loop : Omf_reactor.Reactor.t;
  mutable loop_thread : Thread.t;
  mu : Mutex.t;
  mutable workers : Thread.t list;
  mutable stopped : bool;
}

(** [serve ~port handler] accepts connections until {!shutdown},
    running [handler] with a blocking {!Link.t} in a thread per
    connection (the link is closed when the handler returns or
    raises). *)
let serve ?(host = "127.0.0.1") ?(backlog = 16) ~port
    (handler : Link.t -> unit) : server =
  let sock, bound_port = listener ~host ~backlog ~port () in
  Unix.set_nonblock sock;
  let loop = Omf_reactor.Reactor.create () in
  let s =
    { sock; srv_port = bound_port; loop
    ; loop_thread = Thread.self () (* replaced below *)
    ; mu = Mutex.create (); workers = []; stopped = false }
  in
  let worker fd =
    let link = link_of_fd fd in
    (try handler link with _ -> ());
    Link.close link
  in
  let rec accept_all () =
    match Unix.accept ~cloexec:true sock with
    | fd, _ ->
      let th = Thread.create worker fd in
      Mutex.lock s.mu;
      s.workers <- th :: s.workers;
      Mutex.unlock s.mu;
      accept_all ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  ignore
    (Omf_reactor.Reactor.register loop sock ~on_readable:accept_all
       ~on_writable:ignore);
  s.loop_thread <- Thread.create Omf_reactor.Reactor.run loop;
  s

let server_port (s : server) = s.srv_port

(** Stop accepting, join the acceptor loop and every in-flight handler
    thread. Handlers see their link close once the peer hangs up; a
    handler that never returns will block [shutdown]. Idempotent. *)
let shutdown (s : server) =
  if not s.stopped then begin
    s.stopped <- true;
    Omf_reactor.Reactor.stop s.loop;
    Thread.join s.loop_thread;
    (try Unix.shutdown s.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close s.sock with Unix.Unix_error _ -> ());
    Omf_reactor.Reactor.dispose s.loop;
    Mutex.lock s.mu;
    let workers = s.workers in
    s.workers <- [];
    Mutex.unlock s.mu;
    List.iter Thread.join workers
  end

(** [connect ~host ~port] opens a client link. [connect_timeout_s]
    bounds connection establishment (non-blocking connect + select);
    [io_timeout_s] arms per-operation send/receive deadlines on the
    resulting link ({!Link.Timeout}). *)
let connect ?(host = "127.0.0.1") ~port ?connect_timeout_s ?io_timeout_s () :
    Link.t =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        raise (Tcp_error s))
      fmt
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (match connect_timeout_s with
  | None -> (
    try Unix.connect sock addr
    with Unix.Unix_error (e, _, _) ->
      fail "connect %s:%d: %s" host port (Unix.error_message e))
  | Some dt -> (
    Unix.set_nonblock sock;
    (match Unix.connect sock addr with
    | () -> ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _)
      -> (
      (* wait for writability up to the deadline, then check SO_ERROR *)
      match Unix.select [] [ sock ] [] dt with
      | _, [ _ ], _ -> (
        match Unix.getsockopt_error sock with
        | None -> ()
        | Some e -> fail "connect %s:%d: %s" host port (Unix.error_message e))
      | _ -> fail "connect %s:%d: timeout after %.3gs" host port dt)
    | exception Unix.Unix_error (e, _, _) ->
      fail "connect %s:%d: %s" host port (Unix.error_message e));
    Unix.clear_nonblock sock));
  link_of_fd ?io_timeout_s sock
