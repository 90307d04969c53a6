(** Tests for the shared readiness engine: the timer wheel's firing
    order against a sorted model (property-tested under random
    insert/cancel), fd churn through the buffered connection driver
    without leaking registrations, cross-thread [inject] under load,
    per-connection deadlines, the loop's sum of queued bytes, sealing
    at write, listening
    sockets that a failed bind does not leak, and the server shell
    hosting a frame and an HTTP listener on one loop. *)

module Reactor = Omf_reactor.Reactor
module Conn = Omf_reactor.Conn
module Server = Omf_reactor.Server
module Wheel = Omf_reactor.Reactor.Wheel
module Http = Omf_httpd.Http
module Listen = Omf_testkit.Listen

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                          *)
(* ------------------------------------------------------------------ *)

(* Random schedule/cancel sequences: firing must visit exactly the
   still-live timers with deadline <= cut, in (deadline, insertion)
   order — i.e. the order of the sorted model. Deadlines are drawn from
   a small integer range so ties (the interesting case for the seq
   tie-break) are common. *)
let prop_wheel_order =
  QCheck.Test.make ~name:"timer wheel fires in (deadline, seq) order"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40) (int_range 0 9))
        (list_of_size Gen.(0 -- 20) small_nat))
    (fun (deadlines, cancels) ->
      let h = Wheel.create () in
      let fired = ref [] in
      (* model: (deadline, seq) for every scheduled timer *)
      let timers =
        List.mapi
          (fun seq d ->
            let tm =
              Wheel.schedule h ~at:(float_of_int d) (fun () ->
                  fired := (d, seq) :: !fired)
            in
            (d, seq, tm))
          deadlines
      in
      let cancelled =
        List.filter_map
          (fun i ->
            match List.nth_opt timers (i mod max 1 (List.length timers)) with
            | Some (d, seq, tm) when List.length timers > 0 ->
              Wheel.cancel tm;
              Some (d, seq)
            | _ -> None)
          cancels
      in
      let live (d, seq) = not (List.mem (d, seq) cancelled) in
      (* fire in two stages to exercise partial cuts *)
      ignore (Wheel.fire h ~now:4.5);
      let mid = List.rev !fired in
      ignore (Wheel.fire h ~now:100.0);
      let all = List.rev !fired in
      let model = List.map (fun (d, seq, _) -> (d, seq)) timers in
      let expect_mid =
        List.filter (fun (d, _) -> d <= 4) (List.filter live model)
      in
      let expect_all = List.filter live model in
      (* the model is already in (deadline-stable, seq) order only if
         sorted; insertion order is seq order, so sort by deadline
         keeping seq order (stable sort) *)
      let sorted l =
        List.stable_sort (fun (d1, _) (d2, _) -> compare d1 d2) l
      in
      mid = sorted expect_mid && all = sorted expect_all)

let test_wheel_reschedule () =
  let h = Wheel.create () in
  let hits = ref 0 in
  (* an action that re-arms itself must be safe (it runs after removal) *)
  let rec arm at =
    ignore
      (Wheel.schedule h ~at (fun () ->
           incr hits;
           if !hits < 3 then arm (at +. 1.0)))
  in
  arm 1.0;
  ignore (Wheel.fire h ~now:10.0);
  (* the re-armed timers are due within the same cut and fire too *)
  check int "chained re-arms all fired" 3 !hits;
  check int "wheel drained" 0 (Wheel.fire h ~now:infinity)

let test_wheel_cancel_counts () =
  let h = Wheel.create () in
  let t1 = Wheel.schedule h ~at:1.0 ignore in
  let _t2 = Wheel.schedule h ~at:2.0 ignore in
  Wheel.cancel t1;
  check bool "next deadline skips the cancelled head" true
    (Wheel.next_deadline h = Some 2.0);
  check int "the cancelled head does not fire" 0 (Wheel.fire h ~now:1.5);
  check int "only the live timer fires" 1 (Wheel.fire h ~now:5.0)

(* ------------------------------------------------------------------ *)
(* A reactor on a thread, with helpers                                  *)
(* ------------------------------------------------------------------ *)

let with_loop fn =
  let loop = Reactor.create () in
  let thread = Thread.create Reactor.run loop in
  Fun.protect
    ~finally:(fun () ->
      Reactor.stop loop;
      Thread.join thread;
      Reactor.dispose loop)
    (fun () -> fn loop)

(* run [fn] on the loop thread and wait for its result *)
let on_loop loop fn =
  let mu = Mutex.create () and cond = Condition.create () in
  let result = ref None in
  Reactor.inject loop (fun () ->
      let r = fn () in
      Mutex.lock mu;
      result := Some r;
      Condition.signal cond;
      Mutex.unlock mu);
  Mutex.lock mu;
  while !result = None do
    Condition.wait cond mu
  done;
  Mutex.unlock mu;
  Option.get !result

let rec really_read fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then Alcotest.fail "echo peer closed early";
    really_read fd buf (off + n) (len - n)
  end

(* write [msg] as one frame on [fd] and read the echoed frame back *)
let echo_roundtrip fd msg =
  let wire = Omf_reactor.Frame.encode msg in
  let n = Unix.write fd wire 0 (Bytes.length wire) in
  check int "request written" (Bytes.length wire) n;
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  let body = Bytes.create (Omf_reactor.Frame.read_header hdr 0) in
  really_read fd body 0 (Bytes.length body);
  check bool "echoed intact" true (Bytes.equal body msg)

let echo loop fd ~on_close =
  Conn.attach loop fd
    ~on_input:(fun c frame -> Conn.send c (Omf_util.Slice.to_bytes frame))
    ~on_close ()

(* ------------------------------------------------------------------ *)
(* Conn: fd churn without leaks                                         *)
(* ------------------------------------------------------------------ *)

(* Attach an echoing Conn over one end of a socketpair, talk to it from
   this thread, close, repeat. Registrations must not accumulate. *)
let test_fd_churn () =
  with_loop (fun loop ->
      let baseline = on_loop loop (fun () -> Reactor.fd_count loop) in
      for round = 1 to 25 do
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let closed = ref false in
        ignore
          (on_loop loop (fun () ->
               echo loop b ~on_close:(fun _ _ -> closed := true)));
        echo_roundtrip a (Bytes.of_string (Printf.sprintf "ping %d" round));
        Unix.close a;
        (* wait for the loop to notice the close and deregister *)
        let rec settle tries =
          if on_loop loop (fun () -> Reactor.fd_count loop) > baseline then
            if tries = 0 then Alcotest.fail "conn registration leaked"
            else begin
              Thread.delay 0.01;
              settle (tries - 1)
            end
        in
        settle 200;
        check bool "on_close fired" true !closed
      done;
      let final = on_loop loop (fun () -> Reactor.fd_count loop) in
      check int "no registrations leaked over 25 churns" baseline final)

(* ------------------------------------------------------------------ *)
(* Wakeup under cross-thread load                                       *)
(* ------------------------------------------------------------------ *)

let test_inject_under_load () =
  with_loop (fun loop ->
      let total = 4 * 250 in
      let hits = ref 0 in
      (* many threads hammering inject concurrently; every thunk must
         run exactly once, on the loop thread *)
      let loop_thread_ok = ref true in
      let loop_tid = on_loop loop (fun () -> Thread.id (Thread.self ())) in
      let senders =
        List.init 4 (fun _ ->
            Thread.create
              (fun () ->
                for _ = 1 to 250 do
                  Reactor.inject loop (fun () ->
                      if Thread.id (Thread.self ()) <> loop_tid then
                        loop_thread_ok := false;
                      incr hits)
                done)
              ())
      in
      List.iter Thread.join senders;
      (* one more injection as a barrier: the queue is FIFO *)
      ignore (on_loop loop (fun () -> ()));
      check int "every injected thunk ran" total !hits;
      check bool "thunks ran on the loop thread" true !loop_thread_ok)

(* ------------------------------------------------------------------ *)
(* Conn deadlines                                                       *)
(* ------------------------------------------------------------------ *)

let test_conn_deadline () =
  with_loop (fun loop ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let mu = Mutex.create () in
      let reason = ref None in
      ignore
        (on_loop loop (fun () ->
             let c =
               Conn.attach loop b
                 ~on_input:(fun _ _ -> ())
                 ~on_close:(fun _ r ->
                   Mutex.lock mu;
                   reason := Some r;
                   Mutex.unlock mu)
                 ()
             in
             Conn.set_deadline c ~reason:"idle timeout" (Some 0.05)));
      (* never write: the deadline must doom the conn *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        Mutex.lock mu;
        let r = !reason in
        Mutex.unlock mu;
        if r = None && Unix.gettimeofday () < deadline then begin
          Thread.delay 0.01;
          wait ()
        end
      in
      wait ();
      check bool "deadline closed the conn" true
        (!reason = Some "idle timeout");
      Unix.close a)

(* Chunks-mode reads borrow the reactor's scratch buffer: the slice
   handed to [on_input] is valid only inside the dispatch. The next
   read refills the same backing buffer, so a retained slice silently
   changes underneath — escaping the callback requires a copy
   ([Slice.to_bytes] / [to_string]), which is the documented
   contract. *)
let test_chunks_borrow_contract () =
  with_loop (fun loop ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let borrowed = ref None in
      let copies = ref [] in
      ignore
        (on_loop loop (fun () ->
             Conn.attach loop b ~mode:Conn.Chunks
               ~on_input:(fun _ chunk ->
                 if !borrowed = None then borrowed := Some chunk;
                 copies := Omf_util.Slice.to_string chunk :: !copies)
               ~on_close:(fun _ _ -> ())
               ()));
      let await what cond =
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (not (cond ())) && Unix.gettimeofday () < deadline do
          Thread.delay 0.005
        done;
        if not (cond ()) then Alcotest.failf "timeout waiting for %s" what
      in
      ignore (Unix.write_substring a "AAAA" 0 4);
      await "first chunk" (fun () -> !borrowed <> None);
      let retained = Option.get !borrowed in
      check Alcotest.string "borrow still reads AAAA before the next read"
        "AAAA"
        (Omf_util.Slice.to_string retained);
      (* the first chunk was delivered, so this write lands in a fresh
         read that reuses the scratch buffer *)
      ignore (Unix.write_substring a "BBBB" 0 4);
      await "second chunk" (fun () -> List.length !copies >= 2);
      check
        (Alcotest.list Alcotest.string)
        "escaped copies are stable" [ "BBBB"; "AAAA" ] !copies;
      check Alcotest.string "retained borrow was overwritten" "BBBB"
        (Omf_util.Slice.to_string retained);
      Unix.close a)

(* The loop's queued-bytes sum is the one count of unwritten bytes:
   after every kind of queue change it equals the sum over the loop's
   attached conns, and the hook has seen the new total. Driven on this
   thread without [run], so each step's writes are exactly the ones it
   asks for: the peers never read, and a small [SO_SNDBUF] makes the
   first write partial. *)
let test_conn_queued_bytes () =
  let loop = Reactor.create () and loop2 = Reactor.create () in
  let seen = ref (-1) and seen2 = ref (-1) in
  Reactor.set_on_queued loop (fun n -> seen := n);
  Reactor.set_on_queued loop2 (fun n -> seen2 := n);
  let pair () =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.setsockopt_int b Unix.SO_SNDBUF 4096;
    (a, b)
  in
  let a1, b1 = pair () and a2, b2 = pair () in
  let closed = ref false in
  let attach ?(on_close = fun _ _ -> ()) fd =
    Conn.attach loop fd ~on_input:(fun _ _ -> ()) ~on_close ()
  in
  let c1 = attach b1 and c2 = attach ~on_close:(fun _ _ -> closed := true) b2 in
  let agree step loop seen conns =
    check int (step ^ ": loop sum = conns' bytes")
      (List.fold_left (fun acc c -> acc + Conn.queued_bytes c) 0 conns)
      (Reactor.queued_bytes loop);
    check int (step ^ ": hook saw the total") (Reactor.queued_bytes loop) !seen
  in
  let body = Bytes.make 65536 'x' in
  let frame = Bytes.length body + 4 in
  let send c =
    Conn.send_body c ~droppable:true body 0 (Bytes.length body)
  in
  send c1;
  send c1;
  send c2;
  agree "enqueue" loop seen [ c1; c2 ];
  check int "enqueue counts whole frames" (3 * frame)
    (Reactor.queued_bytes loop);
  Conn.writable c1;
  let left = Conn.queued_bytes c1 in
  check bool "the write was partial" true (frame < left && left < 2 * frame);
  agree "partial write" loop seen [ c1; c2 ];
  check int "drop sheds the untouched frame" frame
    (Conn.drop_oldest_droppable c1);
  agree "drop_oldest_droppable" loop seen [ c1; c2 ];
  Conn.doom c2 "test";
  check bool "doom leaves bytes queued" true (Conn.queued_bytes c2 > 0);
  agree "doom" loop seen [ c1; c2 ];
  (* the deferred close runs in [run]'s final sweep *)
  Reactor.stop loop;
  Reactor.run loop;
  check bool "closed" true !closed;
  check int "close drops what is left" 0 (Conn.queued_bytes c2);
  agree "close" loop seen [ c1; c2 ];
  let moving = Conn.queued_bytes c1 in
  Conn.detach c1;
  check int "detach keeps the conn's bytes" moving (Conn.queued_bytes c1);
  agree "detach" loop seen [];
  Conn.adopt loop2 c1;
  agree "adopt" loop2 seen2 [ c1 ];
  check int "adopt moves the bytes" moving (Reactor.queued_bytes loop2);
  List.iter Unix.close [ a1; b1; a2 ];
  Reactor.dispose loop;
  Reactor.dispose loop2

(* Sealing at write: a fake sealer stamps each body's header with a
   running count, and records which body it sealed. Eight 64 KiB bodies
   queue behind a plain frame sent before the sealer was set; the peer
   reads nothing at first, so the first write is partial, and the
   oldest droppable entry is shed. The rest is written in rounds, part
   of them while the connection is detached and part after another
   loop adopts it. Driven on this thread without [run]. *)
let test_conn_sealed_entries () =
  let loop = Reactor.create () and loop2 = Reactor.create () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int b Unix.SO_SNDBUF 4096;
  Unix.set_nonblock a;
  let c =
    Conn.attach loop b ~on_input:(fun _ _ -> ()) ~on_close:(fun _ _ -> ()) ()
  in
  Conn.send c (Bytes.of_string "hello");
  let sealed = ref [] and calls = ref 0 in
  Conn.set_sealer c ~header:12 (fun hdr buf off len ->
      incr calls;
      sealed := Bytes.get_int64_be buf off :: !sealed;
      Bytes.set_int32_be hdr 0 (Int32.of_int (8 + len));
      Bytes.set_int64_be hdr 4 (Int64.of_int !calls));
  let n = 8 and size = 65536 in
  for i = 0 to n - 1 do
    let body = Bytes.make size 'x' in
    Bytes.set_int64_be body 0 (Int64.of_int i);
    Conn.send_body c ~droppable:true body 0 size
  done;
  Conn.writable c;
  check (Alcotest.list int) "the first write sealed only the body it reached"
    [ 0 ] (List.rev_map Int64.to_int !sealed);
  check int "the oldest unsealed body is shed" (12 + size)
    (Conn.drop_oldest_droppable c);
  let got = Buffer.create (n * size) in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read a chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes got chunk 0 k;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  (* write and read in rounds until the queue is empty *)
  let rounds ~until =
    let left = ref 1000 in
    while Conn.queued c > until && !left > 0 do
      drain ();
      Conn.writable c;
      decr left
    done
  in
  Conn.detach c;
  rounds ~until:(n - 4);
  check bool "sealed while detached" true (!calls > 1);
  Conn.adopt loop2 c;
  rounds ~until:0;
  drain ();
  check int "queue written" 0 (Conn.queued c);
  let expected = 0 :: List.init (n - 2) (fun i -> i + 2) in
  check (Alcotest.list int)
    "sealed in queue order, once each, never the shed one" expected (List.rev_map Int64.to_int !sealed);
  (* the wire: the plain frame, then each sealed frame's header and body *)
  let wire = Buffer.to_bytes got in
  check int "plain frame first" 5 (Omf_reactor.Frame.read_header wire 0);
  check Alcotest.string "sent as queued" "hello" (Bytes.sub_string wire 4 5);
  let pos = ref 9 in
  List.iteri
    (fun k body ->
      check int "sealed frame length" (8 + size)
        (Omf_reactor.Frame.read_header wire !pos);
      check int "header stamped in write order" (k + 1)
        (Int64.to_int (Bytes.get_int64_be wire (!pos + 4)));
      check int "the body behind it" body
        (Int64.to_int (Bytes.get_int64_be wire (!pos + 12)));
      pos := !pos + 12 + size)
    expected;
  check int "nothing else on the wire" (Bytes.length wire) !pos;
  List.iter Unix.close [ a; b ];
  Reactor.dispose loop;
  Reactor.dispose loop2

(* ------------------------------------------------------------------ *)
(* Listening sockets                                                    *)
(* ------------------------------------------------------------------ *)

(* Every server binds through [Reactor.listener]; a start on a port
   someone else listens on must fail with EADDRINUSE and close its
   socket, however many times it is retried. A server shell whose
   second listener is the busy one closes the first. *)
let test_busy_port_leaks_no_fd () =
  Listen.with_busy_port @@ fun port ->
  Listen.refused_without_leak ~rounds:50
    [ ("relay", fun () -> ignore (Omf_relay.Relay.listen ~port ()))
    ; ("http", fun () -> ignore (Http.serve_table ~port []))
    ; ( "registry",
        fun () ->
          ignore
            (Omf_registry.Registry.Server.start ~port
               (Omf_registry.Registry.create ())) )
    ; ( "server shell",
        fun () ->
          ignore
            (Server.start
               [ ("127.0.0.1", 0, echo); ("127.0.0.1", port, echo) ]) ) ]

(* One shell, two listeners: frames are echoed and HTTP is answered on
   the same loop; shutdown closes a connection still open, frees both
   ports and leaves no descriptor behind. *)
let test_server_shell () =
  let before = Listen.open_fds () in
  let srv =
    Server.start
      [ ("127.0.0.1", 0, echo)
      ; ( "127.0.0.1"
        , 0
        , Http.connection (fun ~path ~headers:_ ->
              Http.ok ~content_type:"text/plain" path) ) ]
  in
  let frame_port, http_port =
    match Server.ports srv with
    | [ f; h ] -> (f, h)
    | _ -> Alcotest.fail "one port per listener"
  in
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* a read that would hang raises EAGAIN after 5 s instead *)
  Unix.setsockopt_float client Unix.SO_RCVTIMEO 5.0;
  Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, frame_port));
  echo_roundtrip client (Bytes.of_string "frame listener");
  check Alcotest.string "HTTP listener" "/hello"
    (Http.get ~port:http_port ~path:"/hello" ());
  Server.shutdown srv;
  check int "shutdown closed the open connection" 0
    (Unix.read client (Bytes.create 1) 0 1);
  Unix.close client;
  Listen.rebind frame_port;
  Listen.rebind http_port;
  check int "open descriptors unchanged" before (Listen.open_fds ())

(* A client that connects just before shutdown may still sit in the
   listener's backlog while the loop dooms its connections: it must see
   end of stream or a reset, never a connection left open. Each read
   has a 5 s receive timeout so a leak fails instead of hanging. *)
let test_server_shell_shutdown_race () =
  let before = Listen.open_fds () in
  for _ = 1 to 200 do
    let srv = Server.start [ ("127.0.0.1", 0, echo) ] in
    let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float client Unix.SO_RCVTIMEO 5.0;
    Unix.connect client
      (Unix.ADDR_INET (Unix.inet_addr_loopback, List.hd (Server.ports srv)));
    Server.shutdown srv;
    (match Unix.read client (Bytes.create 1) 0 1 with
    | n -> check int "end of stream after shutdown" 0 n
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "connection left open by shutdown");
    Unix.close client
  done;
  check int "open descriptors unchanged" before (Listen.open_fds ())

let () =
  Alcotest.run "reactor"
    [ ( "wheel"
      , [ QCheck_alcotest.to_alcotest prop_wheel_order
        ; Alcotest.test_case "re-arming actions" `Quick test_wheel_reschedule
        ; Alcotest.test_case "lazy cancellation" `Quick
            test_wheel_cancel_counts ] )
    ; ( "conn"
      , [ Alcotest.test_case "fd churn leaks nothing" `Quick test_fd_churn
        ; Alcotest.test_case "deadline dooms idle conn" `Quick
            test_conn_deadline
        ; Alcotest.test_case "chunk slices borrow the scratch buffer"
            `Quick test_chunks_borrow_contract
        ; Alcotest.test_case "loop sums the queued bytes" `Quick
            test_conn_queued_bytes
        ; Alcotest.test_case "sealed entries: queue order, once, never shed"
            `Quick test_conn_sealed_entries ] )
    ; ( "wakeup"
      , [ Alcotest.test_case "inject under cross-thread load" `Quick
            test_inject_under_load ] )
    ; ( "listen"
      , [ Alcotest.test_case "busy port leaks no fd" `Quick
            test_busy_port_leaks_no_fd
        ; Alcotest.test_case "server shell: frames and HTTP on one loop"
            `Quick test_server_shell
        ; Alcotest.test_case "server shell: shutdown closes a just-accepted \
                              client" `Quick test_server_shell_shutdown_race ] )
    ]
