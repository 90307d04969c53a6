(** Real TCP transport (loopback or LAN): length-prefixed byte messages
    over Unix sockets, satisfying {!Link.t}. Servers bind with
    {!Omf_reactor.Reactor.listener}; simulations and benchmarks prefer
    {!Netsim} for determinism. *)

module Frame = Omf_reactor.Frame
module Compress = Omf_compress.Compress
module Poll = Omf_util.Poll
module Decode = Omf_util.Decode

exception Tcp_error of string

(* a write to a peer that vanished must surface as EPIPE (an exception
   our reconnect/doom paths handle), not kill the whole process — the
   default SIGPIPE disposition would. Set once, at first use of TCP. *)
let () =
  if not Sys.win32 then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* SO_RCVTIMEO/SO_SNDTIMEO expiry surfaces as EAGAIN/EWOULDBLOCK from a
   blocking read/write — translate it to Link.Timeout *)
let read fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> raise Link.Timeout

let rec really_read fd buf off len =
  if len > 0 then begin
    let n = read fd buf off len in
    if n = 0 then raise End_of_file;
    really_read fd buf (off + n) (len - n)
  end

let rec really_write fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len
      with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> raise Link.Timeout
    in
    really_write fd buf (off + n) (len - n)
  end

type comp_totals = { mutable raw_bytes : int; mutable wire_bytes : int }

(* a buffer of at least [n] bytes: [b] itself, or a fresh one at least
   twice its size (grow-only, like {!Frame.Decoder}'s) *)
let room (b : Bytes.t) n =
  if Bytes.length b >= n then b
  else begin
    let cap = ref (max 4096 (2 * Bytes.length b)) in
    while !cap < n do
      cap := 2 * !cap
    done;
    Bytes.create !cap
  end

(** [link_of_fd ?mac ?comp fd] wraps a connected socket, with
    [TCP_NODELAY] set, in the connection's negotiated frame modes. *)
let link_of_fd ?mac ?comp (fd : Unix.file_descr) : Link.t =
  (* small frames (acks, control replies, events) must not wait for the
     peer's delayed ACK behind Nagle's algorithm *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let closed = ref false in
  let hdr = Frame.header_length in
  (* where the payload starts in a frame body *)
  let pay = match mac with None -> 0 | Some _ -> Macframe.overhead in
  let plain = Option.is_none mac && Option.is_none comp in
  (* one buffer per direction: send and recv may run on different
     threads. Compression is send-only, so its scratch is the sender's. *)
  let sbuf = ref Bytes.empty and rbuf = ref (Bytes.create hdr) in
  let ws = Option.map (fun _ -> Compress.scratch ()) comp in
  (* the frame [recv] lends: exact-length, kept while lengths repeat *)
  let lent = ref Bytes.empty in
  let lend n =
    if Bytes.length !lent <> n then lent := Bytes.create n;
    !lent
  in
  (* boxed once: [~into:lend] would box it again on every frame *)
  let into = Some lend in
  let send msg =
    if !closed then raise Link.Closed;
    (* [len][nonce][tag][payload] in one buffer, one write *)
    let n = Bytes.length msg in
    sbuf := room !sbuf (hdr + pay + Compress.bound n);
    let b = !sbuf in
    let plen =
      match comp with
      | None ->
        Bytes.blit msg 0 b (hdr + pay) n;
        n
      | Some tot ->
        let k =
          Compress.compress_into ?scratch:ws msg ~pos:0 ~len:n b ~off:(hdr + pay)
        in
        tot.raw_bytes <- tot.raw_bytes + n;
        tot.wire_bytes <- tot.wire_bytes + k;
        k
    in
    (match mac with Some st -> Macframe.seal_in_place st b hdr plen | None -> ());
    Frame.write_header b 0 (pay + plen);
    really_write fd b 0 (hdr + pay + plen)
  in
  (* Exactly one frame per call, never a byte past it: the relay may
     adopt this socket between frames and go on reading it itself. *)
  let read_frame () =
    really_read fd !rbuf 0 hdr;
    let len = Frame.read_header !rbuf 0 in
    if plain then begin
      let msg = lend len in
      really_read fd msg 0 len;
      msg
    end
    else begin
      rbuf := room !rbuf len;
      let b = !rbuf in
      really_read fd b 0 len;
      (match mac with Some st -> Macframe.open_in_place st b 0 len | None -> ());
      match comp with
      | None ->
        let msg = lend (len - pay) in
        Bytes.blit b pay msg 0 (len - pay);
        msg
      | Some tot ->
        let raw = Compress.decompress_sub ?into b ~pos:pay ~len:(len - pay) in
        tot.raw_bytes <- tot.raw_bytes + Bytes.length raw;
        tot.wire_bytes <- tot.wire_bytes + (len - pay);
        raw
    end
  in
  (* the option [recv] returns, kept with the buffer it lends: a frame
     in the same buffer gets the same [Some] *)
  let last = ref None in
  let recv () =
    if !closed then None
    else
      match read_frame () with
      | msg -> (
        match !last with
        | Some lent as s when lent == msg -> s
        | _ ->
          let s = Some msg in
          last := s;
          s)
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

let set_io_timeout fd t =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO t

(** [dial ~host ~port] opens a connected blocking socket.
    [connect_timeout_s] bounds connection establishment (non-blocking
    connect + poll); [io_timeout_s] arms [SO_RCVTIMEO]/[SO_SNDTIMEO]
    on the connected socket, so a read or write that stalls past it
    raises {!Link.Timeout}. Every failure closes the socket and raises
    {!Tcp_error}. *)
let dial ?(host = "127.0.0.1") ~port ?connect_timeout_s ?io_timeout_s () :
    Unix.file_descr =
  let fail msg =
    raise (Tcp_error (Printf.sprintf "connect %s:%d: %s" host port msg))
  in
  let addr =
    try Unix.ADDR_INET (Omf_reactor.Reactor.resolve host, port)
    with Omf_reactor.Reactor.Resolve_error m -> fail m
  in
  let sock =
    try Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0
    with Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  in
  let connect () =
    match connect_timeout_s with
    | None -> Unix.connect sock addr
    | Some dt ->
      Unix.set_nonblock sock;
      (match Unix.connect sock addr with
      | () -> ()
      | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _)
        -> (
        (* wait for writability up to the deadline, then check
           SO_ERROR; poll, as the socket's number may be past select's
           1023 *)
        let p = Poll.create 1 in
        Poll.set p 0 sock Poll.writable;
        let timeout_ms = int_of_float (Float.ceil (dt *. 1000.)) in
        match Poll.wait p 1 ~timeout_ms with
        | 0 -> fail (Printf.sprintf "timeout after %.3gs" dt)
        | _ ->
          Option.iter
            (fun e -> fail (Unix.error_message e))
            (Unix.getsockopt_error sock)));
      Unix.clear_nonblock sock
  in
  match
    connect ();
    match io_timeout_s with
    | Some t when t > 0.0 -> set_io_timeout sock t
    | _ -> ()
  with
  | () -> sock
  | exception e -> (
    (try Unix.close sock with Unix.Unix_error _ -> ());
    match e with
    | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
    | e -> raise e)

(** [connect ~host ~port] opens a client link over {!dial}. *)
let connect ?host ~port ?connect_timeout_s ?io_timeout_s () : Link.t =
  link_of_fd (dial ?host ~port ?connect_timeout_s ?io_timeout_s ())

(** [Some message] for a transport failure, [None] for anything else. *)
let failure_message : exn -> string option = function
  | Link.Closed | End_of_file -> Some "connection closed"
  | Link.Timeout -> Some "timeout"
  | Tcp_error m -> Some m
  | Decode.Error { layer; offset; reason } ->
    Some (Decode.message layer offset reason)
  | Unix.Unix_error (e, fn, _) -> Some (fn ^ ": " ^ Unix.error_message e)
  | _ -> None
