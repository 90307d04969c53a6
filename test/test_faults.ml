(** Fault-injection suite: what the relay stack does when the network
    misbehaves. Exercises {!Omf_relay.Relay_session} reconnect/replay
    across a relayd kill+restart and across severed links (via the
    {!Omf_testkit.Chaos} proxy), HMAC frame authentication under forged
    and corrupted traffic, the publisher's bounded in-flight window,
    and {!Discovery.discover}'s fallback when a metadata server accepts
    connections but never answers.

    Run via [dune build @faults]; the smoke alias runs it with
    [OMF_FAULTS_QUICK=1] (reduced event counts). *)

open Omf_machine
open Omf_transport
module Relay = Omf_relay.Relay
module Session = Omf_relay.Relay_session
module Chaos = Omf_testkit.Chaos
module Http = Omf_httpd.Http
module Catalog = Omf_xml2wire.Catalog
module Discovery = Omf_xml2wire.Discovery
module Fx = Omf_fixtures.Paper_structs
module Value = Omf_pbio.Value
module Mirror = Omf_mirror.Mirror

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let quick = Sys.getenv_opt "OMF_FAULTS_QUICK" <> None
let scale n = if quick then max 4 (n / 4) else n

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let event seq = Value.set_field Fx.value_a "fltNum" (Value.Int (Int64.of_int seq))

let seq_of v =
  match Value.field_exn v "fltNum" with
  | Value.Int i -> Int64.to_int i
  | _ -> -1

let keys = [ ("capture-1", "a long shared secret for the capture point") ]

(* a session config tuned for tests: fast, generous budget *)
let cfg ?auth ?(max_attempts = 80) ~port () =
  Session.config ~port ?auth ~max_attempts ~base_delay_s:0.01
    ~max_delay_s:0.15 ~connect_timeout_s:2.0 ()

let poll ?(deadline_s = 15.0) ~what (cond : unit -> bool) =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timeout waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let relay_stat ~port key =
  match Relay.Client.connect ~port () with
  | c ->
    let v = Option.value ~default:0 (List.assoc_opt key (Relay.Client.stats c)) in
    Relay.Client.close c;
    v
  | exception Relay.Client.Error _ -> 0

(* a TCP port that nothing listens on (bound ephemeral, then closed) *)
let dead_port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close sock;
  port

(* collect decoded events off a subscriber session in a thread *)
type collector = {
  seqs : int list ref;  (** newest first; read under [lock] *)
  lock : Mutex.t;
  thread : Thread.t;
}

let collect (sub : Session.subscriber) : collector =
  let seqs = ref [] and lock = Mutex.create () in
  let thread =
    Thread.create
      (fun () ->
        let rec go () =
          match Session.recv_subscriber sub with
          | Some (_, v) ->
            Mutex.lock lock;
            seqs := seq_of v :: !seqs;
            Mutex.unlock lock;
            go ()
          | None -> ()
          | exception Session.Gave_up _ -> ()
        in
        go ())
      ()
  in
  { seqs; lock; thread }

let collected (c : collector) : int list =
  Mutex.lock c.lock;
  let l = List.rev !(c.seqs) in
  Mutex.unlock c.lock;
  l

let count (c : collector) : int =
  Mutex.lock c.lock;
  let n = List.length !(c.seqs) in
  Mutex.unlock c.lock;
  n

let strictly_increasing l =
  let rec go = function
    | a :: (b :: _ as rest) -> a < b && go rest
    | _ -> true
  in
  go l

let contains_range l lo hi =
  let rec go n = n > hi || (List.mem n l && go (n + 1)) in
  go lo

(* ------------------------------------------------------------------ *)
(* Clear client errors (no raw Unix_error, no fd leak)                  *)
(* ------------------------------------------------------------------ *)

let test_connect_refused_is_client_error () =
  let port = dead_port () in
  match Relay.Client.connect ~port ~connect_timeout_s:2.0 () with
  | _ -> Alcotest.fail "connect to dead port succeeded"
  | exception Relay.Client.Error m ->
    check bool "message names the address" true
      (Omf_testkit.Strings.contains m (string_of_int port))
  | exception e ->
    Alcotest.failf "expected Client.Error, got %s" (Printexc.to_string e)

let test_handshake_failure_closes_socket () =
  (* an 'e' HELLO reply (auth refused) must not leak the socket: open
     many failing connections; if fds leaked, this would exhaust the
     default soft limit quickly under the faults alias's repetitions *)
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  for _ = 1 to 100 do
    match Relay.Client.connect ~port ~auth:("nope", "k") () with
    | _ -> Alcotest.fail "auth against keyless relay succeeded"
    | exception Relay.Client.Error _ -> ()
  done;
  check bool "relay still healthy" true (relay_stat ~port "connections" > 0)

(** A listener that completes TCP handshakes from its backlog but
    never accepts or reads: the HELLO reply never comes, and
    [Client.connect] (no [io_timeout_s]) must give up by its 5 s
    default. A watchdog closes the listener after 8 s, which resets the
    connection, so a connect without the deadline fails this case
    rather than hanging the suite. *)
let test_hello_deadline () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 8;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let finished = Atomic.make false and cut = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < 8.0
        do
          Thread.delay 0.05
        done;
        if not (Atomic.get finished) then begin
          Atomic.set cut true;
          Unix.close sock
        end)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match Relay.Client.connect ~port ~connect_timeout_s:2.0 () with
    | c ->
      Relay.Client.close c;
      "connected"
    | exception Relay.Client.Error _ -> "Client.Error"
    | exception e -> Printexc.to_string e
  in
  let took = Unix.gettimeofday () -. t0 in
  Atomic.set finished true;
  Thread.join watchdog;
  if not (Atomic.get cut) then Unix.close sock;
  check Alcotest.string "HELLO gives up" "Client.Error" outcome;
  check bool
    (Printf.sprintf "by the deadline, not the watchdog (%.1f s)" took)
    false (Atomic.get cut)

(* ------------------------------------------------------------------ *)
(* HMAC-authenticated framing                                           *)
(* ------------------------------------------------------------------ *)

let test_auth_pubsub_end_to_end () =
  let h = Relay.start (Relay.listen ~auth_keys:keys ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let auth = List.hd keys in
  let pub =
    Session.publisher (cfg ~auth ~port ()) ~stream:"flights"
      ~schema:Fx.schema_a Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let consumer =
    Session.subscribe
      (Session.config ~port ~auth ~max_attempts:0 ())
      ~stream:"flights" Abi.sparc_32
  in
  let n = scale 16 in
  for seq = 0 to n - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  let got = ref [] in
  for _ = 1 to n do
    match Session.recv_subscriber consumer with
    | Some (_, v) -> got := seq_of v :: !got
    | None -> Alcotest.fail "stream closed early"
  done;
  check bool "all events decode through sealed frames" true
    (List.rev !got = List.init n Fun.id);
  check bool "two authenticated sessions" true
    (relay_stat ~port "auth_sessions" >= 2);
  check int "nothing rejected" 0 (relay_stat ~port "frames_rejected");
  Session.close_subscriber consumer;
  Session.close_publisher pub

let test_forged_frames_counted_then_closed () =
  let h = Relay.start (Relay.listen ~auth_keys:keys ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  (* speak the handshake honestly, then send frames sealed with the
     wrong key: every one must be rejected and counted, and the third
     must close the connection *)
  let link = Tcp.connect ~port ~io_timeout_s:5.0 () in
  let hello = "hauth=hmac\nkey-id=capture-1" in
  Link.send link (Bytes.of_string hello);
  (match Link.recv link with
  | Some r ->
    check bool "mac granted" true
      (Omf_testkit.Strings.contains (Bytes.to_string r) "mac")
  | None -> Alcotest.fail "no HELLO reply");
  let forged = Macframe.state ~key:"not the real secret" in
  for _ = 1 to 3 do
    Link.send link (Macframe.seal_next forged (Bytes.of_string "tflood"))
  done;
  (* the relay drops us after the third reject: EOF (its error replies
     are sealed with the true key and fail *our* verify — also fine) *)
  (try
     let rec drain () =
       match Link.recv link with Some _ -> drain () | None -> ()
     in
     drain ()
   with Omf_util.Decode.Error { layer = "mac"; _ } | Link.Closed | Link.Timeout -> ());
  Link.close link;
  check int "every forged frame counted" 3
    (relay_stat ~port "frames_rejected");
  check bool "honest clients unaffected" true
    (relay_stat ~port "auth_sessions" >= 1)

let test_corrupted_handshake_counted_via_chaos () =
  (* chaos flips a bit in the first length header: the relay sees a
     nonsense frame length, counts the malformed-frame disconnect, and
     the client gets a clear error, not a hang *)
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let chaos = Chaos.start ~upstream_port:port () in
  Fun.protect ~finally:(fun () -> Chaos.stop chaos) @@ fun () ->
  Chaos.set_fault chaos ~dir:Chaos.Up (Chaos.Corrupt_at 0);
  (match
     Relay.Client.connect ~port:(Chaos.port chaos) ~connect_timeout_s:2.0
       ~io_timeout_s:2.0 ()
   with
  | c ->
    (* the relay may instead read a huge length and wait for it: our
       io deadline turns that into an error too *)
    Relay.Client.close c
  | exception Relay.Client.Error _ -> ());
  poll ~what:"malformed frame counted" (fun () ->
      relay_stat ~port "frames_rejected" >= 1)

(* ------------------------------------------------------------------ *)
(* Session survives a relayd kill + restart                             *)
(* ------------------------------------------------------------------ *)

let test_session_survives_relayd_restart () =
  let h1 = Relay.start (Relay.listen ~auth_keys:keys ()) in
  let port = Relay.port h1 in
  let auth = List.hd keys in
  let pub =
    Session.publisher (cfg ~auth ~port ()) ~stream:"flights"
      ~schema:Fx.schema_a Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let sub = Session.subscribe (cfg ~auth ~port ()) ~stream:"flights" Abi.arm_32 in
  let col = collect sub in
  let first = scale 20 in
  for seq = 0 to first - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  poll ~what:"first half delivered" (fun () -> count col >= first);
  (* kill and restart relayd on the same port: all streams, descriptor
     caches and connections are gone *)
  Relay.stop h1;
  let h2 = Relay.start (Relay.listen ~port ~auth_keys:keys ()) in
  Fun.protect
    ~finally:(fun () -> Relay.stop h2)
    (fun () ->
      (* probe publishes force the publisher to notice the dead link,
         reconnect and re-advertise; the subscriber's resubscribe can
         only succeed after that, so these two may race it and be
         missed — everything after the resubscribe must not be *)
      Session.publish_value pub fmt (event first);
      Thread.delay 0.05;
      Session.publish_value pub fmt (event (first + 1));
      poll ~what:"subscriber resubscribed" (fun () ->
          Session.subscriber_reconnects sub >= 1);
      let second_lo = first + 2 in
      let second_hi = first + scale 20 + 1 in
      for seq = second_lo to second_hi do
        Session.publish_value pub fmt (event seq)
      done;
      poll ~what:"second half delivered" (fun () ->
          List.mem second_hi (collected col));
      Session.close_subscriber sub;
      Thread.join col.thread;
      let seqs = collected col in
      check bool "no duplicates, in order" true (strictly_increasing seqs);
      check bool "nothing lost before the outage" true
        (contains_range seqs 0 (first - 1));
      check bool "nothing lost after resubscribe" true
        (contains_range seqs second_lo second_hi);
      check bool "publisher reconnected" true
        (Session.publisher_reconnects pub >= 1);
      (* descriptor replay after restart was deduped: the format was
         learned exactly once, not re-registered per reconnect *)
      check int "format learned once across restart" 1
        (Session.subscriber_stats sub).formats_learned;
      check bool "relay counted the reconnects" true
        (relay_stat ~port "reconnects_accepted" >= 2);
      Session.close_publisher pub)

(* ------------------------------------------------------------------ *)
(* Session survives severed links (chaos proxy outage)                  *)
(* ------------------------------------------------------------------ *)

let test_session_survives_severed_link () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let chaos = Chaos.start ~upstream_port:port () in
  Fun.protect ~finally:(fun () -> Chaos.stop chaos) @@ fun () ->
  (* publisher talks to the relay directly; the subscriber's bytes all
     flow through the chaos proxy *)
  let pub =
    Session.publisher (cfg ~port ()) ~stream:"flights" ~schema:Fx.schema_a
      Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let sub =
    Session.subscribe (cfg ~port:(Chaos.port chaos) ()) ~stream:"flights"
      Abi.sparc_32
  in
  let col = collect sub in
  let half = scale 8 in
  for seq = 0 to half - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  poll ~what:"pre-outage events" (fun () -> count col >= half);
  Chaos.sever_all chaos;
  poll ~what:"resubscribe through chaos" (fun () ->
      Session.subscriber_reconnects sub >= 1);
  for seq = half to (2 * half) - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  poll ~what:"post-outage events" (fun () -> count col >= 2 * half);
  Session.close_subscriber sub;
  Thread.join col.thread;
  check bool "zero loss, no duplicates, in order" true
    (collected col = List.init (2 * half) Fun.id);
  check bool "the proxy saw a second connection" true
    (Chaos.accepted chaos >= 2);
  check int "one format registration" 1
    (Session.subscriber_stats sub).formats_learned;
  Session.close_publisher pub

(* ------------------------------------------------------------------ *)
(* Durable store: restart and SIGKILL recovery                          *)
(* ------------------------------------------------------------------ *)

let with_store_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-faults-store-%d-%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  let rec rm path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> try rm root with _ -> ()) (fun () -> f root)

let store_cfg root =
  { (Relay.Store.default_config ~root) with
    fsync = Relay.Store.Interval 0.02 }

(** A store-backed relay restarted gracefully: the acked publisher's
    resume handshake resends only what the store is missing (nothing,
    here) and the subscriber resumes from its next expected offset —
    unlike the memory-only restart test above, {e nothing} may be
    missed, not even during the reconnect race. *)
let test_store_relay_restart_zero_loss () =
  with_store_root @@ fun root ->
  let store = store_cfg root in
  let h1 = Relay.start (Relay.listen ~store ()) in
  let port = Relay.port h1 in
  let pub =
    Session.publisher ~acked:true (cfg ~port ()) ~stream:"flights"
      ~schema:Fx.schema_a Abi.x86_64
  in
  check bool "session negotiated acks" true (Session.publisher_acked pub);
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let sub =
    Session.subscribe ~from:0 (cfg ~port ()) ~stream:"flights" Abi.arm_32
  in
  let col = collect sub in
  let first = scale 20 in
  for seq = 0 to first - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  Session.flush_acked pub;
  check int "everything acked durable" first (Session.publisher_durable pub);
  poll ~what:"first half delivered" (fun () -> count col >= first);
  Relay.stop h1;
  let h2 = Relay.start (Relay.listen ~port ~store ()) in
  Fun.protect
    ~finally:(fun () -> Relay.stop h2)
    (fun () ->
      let last = (2 * first) - 1 in
      for seq = first to last do
        Session.publish_value pub fmt (event seq)
      done;
      Session.flush_acked pub;
      poll ~what:"second half delivered" (fun () ->
          List.mem last (collected col));
      Session.close_subscriber sub;
      Thread.join col.thread;
      let seqs = collected col in
      check bool "in order, no duplicates" true (strictly_increasing seqs);
      check bool "zero loss across the restart" true
        (seqs = List.init (last + 1) Fun.id);
      check int "format learned once across restart" 1
        (Session.subscriber_stats sub).formats_learned;
      check bool "publisher reconnected" true
        (Session.publisher_reconnects pub >= 1);
      Session.close_publisher pub)

(** The acceptance drill: a separate relayd process killed with SIGKILL
    mid-stream — no drain, no close, stores recovered from whatever hit
    the file system — then restarted on the same port and store. The
    acked publisher and offset-tracking subscriber between them must
    account for every event exactly once. Requires the relayd binary
    via [OMF_RELAYD] (set by the dune alias); skipped when absent. *)
let test_store_survives_sigkill () =
  match Sys.getenv_opt "OMF_RELAYD" with
  | None -> Alcotest.skip ()
  | Some exe ->
    with_store_root @@ fun root ->
    let port = dead_port () in
    let spawn () =
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process exe
          [| exe; "--port"; string_of_int port; "--store"; root
           ; "--store-fsync"; "interval=0.02" |]
          null null Unix.stderr
      in
      Unix.close null;
      poll ~what:"relayd listening" (fun () ->
          match Relay.Client.connect ~port ~connect_timeout_s:0.2 () with
          | c ->
            Relay.Client.close c;
            true
          | exception Relay.Client.Error _ -> false);
      pid
    in
    let pid = ref (spawn ()) in
    let kill_hard () =
      Unix.kill !pid Sys.sigkill;
      ignore (Unix.waitpid [] !pid)
    in
    Fun.protect ~finally:(fun () -> try kill_hard () with Unix.Unix_error _ -> ())
    @@ fun () ->
    let pub =
      Session.publisher ~acked:true (cfg ~port ()) ~stream:"flights"
        ~schema:Fx.schema_a Abi.x86_64
    in
    let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
    let sub =
      Session.subscribe ~from:0 (cfg ~port ()) ~stream:"flights" Abi.sparc_32
    in
    let col = collect sub in
    let first = scale 24 in
    for seq = 0 to first - 1 do
      Session.publish_value pub fmt (event seq)
    done;
    poll ~what:"pre-kill events delivered" (fun () -> count col >= first);
    (* SIGKILL: no graceful drain, no Store.close — recovery must cope
       with whatever the page cache flushed, including a torn tail *)
    kill_hard ();
    pid := spawn ();
    let last = (2 * first) - 1 in
    for seq = first to last do
      Session.publish_value pub fmt (event seq)
    done;
    Session.flush_acked pub;
    poll ~what:"post-restart events delivered" (fun () ->
        List.mem last (collected col));
    Session.close_subscriber sub;
    Thread.join col.thread;
    let seqs = collected col in
    check bool "in order, no duplicates" true (strictly_increasing seqs);
    check bool "zero loss across SIGKILL + restart" true
      (seqs = List.init (last + 1) Fun.id);
    check int "format learned once" 1
      (Session.subscriber_stats sub).formats_learned;
    Session.close_publisher pub

(** The mirror acceptance drill (doc/MIRROR.md): a separate source
    relayd killed with SIGKILL mid-publish while an A->B replication
    link is live and [promote_on_loss] armed. The replica must promote
    itself, within the time the link's retry config bounds; every event
    the source durably accepted must be readable from the replica
    exactly once — the pre-kill consumer's prefix and the post-failover
    resume must interleave with zero loss and zero duplication — and the
    promoted replica must accept new publishers.
    With [~compress:true] the replication link carries LZ blocks
    ([relayd --mirror-compress], PROTOCOLS.md §18) — the kill lands
    mid-compressed-stream and the loss/dup accounting must hold
    unchanged. Requires the relayd binary via [OMF_RELAYD]; skipped
    when absent. *)
let mirror_failover_sigkill ~compress () =
  match Sys.getenv_opt "OMF_RELAYD" with
  | None -> Alcotest.skip ()
  | Some exe ->
    with_store_root @@ fun root_a ->
    with_store_root @@ fun root_b ->
    let port_a = dead_port () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "--port"; string_of_int port_a; "--store"; root_a
         ; "--store-fsync"; "interval=0.02" |]
        null null Unix.stderr
    in
    Unix.close null;
    let killed = ref false in
    let kill_hard () =
      killed := true;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    in
    Fun.protect ~finally:(fun () -> if not !killed then kill_hard ())
    @@ fun () ->
    poll ~what:"source relayd listening" (fun () ->
        match Relay.Client.connect ~port:port_a ~connect_timeout_s:0.2 () with
        | c ->
          Relay.Client.close c;
          true
        | exception Relay.Client.Error _ -> false);
    let hb = Relay.start (Relay.listen ~store:(store_cfg root_b) ()) in
    let port_b = Relay.port hb in
    Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
    let rescan_s = 0.05 and io_timeout_s = 0.25 and max_attempts = 3
    and max_delay_s = 0.1 in
    let m =
      Mirror.start hb
        (Mirror.config ~rescan_s ~io_timeout_s ~max_attempts
           ~base_delay_s:0.02 ~max_delay_s ~promote_on_loss:true
           ~compress ~source_host:"127.0.0.1" ~source_port:port_a ())
    in
    Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
    let mstat k = Option.value ~default:0 (List.assoc_opt k (Mirror.stats m)) in
    let pub =
      Session.publisher ~acked:true
        (cfg ~max_attempts:3 ~port:port_a ())
        ~stream:"flights" ~schema:Fx.schema_a Abi.x86_64
    in
    let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
    let sub =
      Session.subscribe ~from:0
        (cfg ~max_attempts:3 ~port:port_a ())
        ~stream:"flights" Abi.arm_32
    in
    let col = collect sub in
    let first = scale 16 in
    for seq = 0 to first - 1 do
      Session.publish_value pub fmt (event seq)
    done;
    Session.flush_acked pub;
    poll ~what:"pre-kill events delivered" (fun () -> count col >= first);
    poll ~what:"replica caught up before the kill" (fun () ->
        relay_stat ~port:port_b "store.flights.tail" >= first);
    check bool "link established" true (mstat "links_established" >= 1);
    if compress then
      (* the kill must land on a genuinely compressed link, not one
         that negotiated down *)
      check bool "source granted comp=lz" true
        (relay_stat ~port:port_a "comp_sessions" >= 1);
    (* stream a second batch slowly so the kill lands mid-publish *)
    let sent = ref first in
    let pusher =
      Thread.create
        (fun () ->
          try
            for seq = first to first + scale 16 - 1 do
              Session.publish_value pub fmt (event seq);
              sent := seq + 1;
              Thread.delay 0.005
            done
          with Session.Overflow _ | Session.Gave_up _ | Relay.Client.Error _ ->
            ())
        ()
    in
    poll ~what:"second batch replicating" (fun () ->
        relay_stat ~port:port_b "store.flights.tail" >= first + 4);
    let killed_at = Omf_util.Clock.now_us () in
    kill_hard ();
    (* the reconnect budget (3 x <=0.1s backoff) runs out and the
       replica promotes itself *)
    poll ~deadline_s:20.0 ~what:"replica promoted on loss" (fun () ->
        mstat "promotes" >= 1);
    (* ... within what the link's config allows: one rescan, then
       [max_attempts] handshakes, each a connect and a reply bounded by
       [io_timeout_s], with a backoff of at most [max_delay_s] between *)
    let failover_us = Omf_util.Clock.now_us () - killed_at in
    let bound_s =
      rescan_s
      +. (float_of_int max_attempts *. ((2. *. io_timeout_s) +. max_delay_s))
    in
    Printf.printf "kill -> promoted: %.1f ms (bound %.0f ms)\n%!"
      (float_of_int failover_us /. 1e3)
      (bound_s *. 1e3);
    check bool "promoted within the link's retry budget" true
      (float_of_int failover_us <= bound_s *. 1e6);
    Thread.join pusher;
    (try Session.close_publisher pub with _ -> ());
    Session.close_subscriber sub;
    Thread.join col.thread;
    let seqs_a = collected col in
    let next = List.length seqs_a in
    check bool "pre-kill consumer: in order, no gaps" true
      (seqs_a = List.init next Fun.id);
    let tail_b = relay_stat ~port:port_b "store.flights.tail" in
    check bool "no amplification: replica holds at most what was sent" true
      (tail_b <= !sent);
    (* transparent failover: resume against the mirror at the next
       expected offset and drain whatever it durably replicated; the
       two reads must cover 0..max(next,tail_b)-1 exactly once *)
    let seqs_b =
      if tail_b <= next then []
      else begin
        let sub2 =
          Session.subscribe ~from:next
            (cfg ~port:port_b ())
            ~stream:"flights" Abi.arm_32
        in
        let col2 = collect sub2 in
        poll ~what:"failover resume drained" (fun () ->
            count col2 >= tail_b - next);
        Session.close_subscriber sub2;
        Thread.join col2.thread;
        collected col2
      end
    in
    let final = max next tail_b in
    check bool "zero loss, zero dup across failover" true
      (seqs_a @ seqs_b = List.init final Fun.id);
    (* the promoted replica accepts writes again *)
    let pub2 =
      Session.publisher ~acked:true (cfg ~port:port_b ()) ~stream:"flights"
        ~schema:Fx.schema_a Abi.x86_64
    in
    let fmt2 = Option.get (Session.publisher_format pub2 "ASDOffEvent") in
    let extra = 4 in
    for seq = tail_b to tail_b + extra - 1 do
      Session.publish_value pub2 fmt2 (event seq)
    done;
    Session.flush_acked pub2;
    poll ~what:"post-failover appends" (fun () ->
        relay_stat ~port:port_b "store.flights.tail" >= tail_b + extra);
    Session.close_publisher pub2

(** Resume renumbering when the relay's durable watermark has moved
    {e past} the publisher's entire unacked window: events are
    published without draining acks (acks are only consumed inside
    publish/flush calls, so the whole burst stays buffered), the relay
    restarts over its store, and the resume handshake must trim every
    already-durable frame and renumber nothing — republishing the
    window verbatim would duplicate the whole prefix. *)
let test_acked_resume_watermark_ahead () =
  with_store_root @@ fun root ->
  let store =
    { (Relay.Store.default_config ~root) with
      fsync = Relay.Store.Every_n 1 }
  in
  let h1 = Relay.start (Relay.listen ~store ()) in
  let port = Relay.port h1 in
  let pub =
    Session.publisher ~window:64 ~acked:true (cfg ~port ()) ~stream:"flights"
      ~schema:Fx.schema_a Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let first = scale 12 in
  for seq = 0 to first - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  (* no flush: the acks sit unread in the socket, so the publisher
     still considers the entire burst in flight... *)
  check int "whole burst still buffered" first (Session.publisher_buffered pub);
  (* ...while the relay has already made all of it durable *)
  poll ~what:"burst durable at the relay" (fun () ->
      relay_stat ~port "store.flights.tail" >= first);
  Relay.stop h1;
  let h2 = Relay.start (Relay.listen ~port ~store ()) in
  Fun.protect ~finally:(fun () -> Relay.stop h2) @@ fun () ->
  let last = (2 * first) - 1 in
  for seq = first to last do
    Session.publish_value pub fmt (event seq)
  done;
  Session.flush_acked pub;
  check int "durable watermark covers both batches" (last + 1)
    (Session.publisher_durable pub);
  check bool "publisher reconnected" true
    (Session.publisher_reconnects pub >= 1);
  let sub = Session.subscribe ~from:0 (cfg ~port ()) ~stream:"flights" Abi.arm_32 in
  let col = collect sub in
  poll ~what:"full stream delivered" (fun () -> List.mem last (collected col));
  Session.close_subscriber sub;
  Thread.join col.thread;
  check bool "no duplicated prefix, no renumbered gap" true
    (collected col = List.init (last + 1) Fun.id);
  Session.close_publisher pub

(* ------------------------------------------------------------------ *)
(* Publisher window overflow is explicit                                *)
(* ------------------------------------------------------------------ *)

let test_publisher_overflow_is_explicit () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  (* max_attempts = 0: never reconnect, so frames accumulate *)
  let pub =
    Session.publisher ~window:3
      (cfg ~max_attempts:0 ~port ())
      ~stream:"flights" ~schema:Fx.schema_a Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  Session.publish_value pub fmt (event 0);
  Relay.stop h;
  (* early sends may still land in dead socket buffers; once the broken
     link is detected, frames buffer up to the window, then Overflow *)
  let overflowed = ref false in
  (try
     for seq = 1 to 50 do
       Session.publish_value pub fmt (event seq)
     done
   with Session.Overflow _ -> overflowed := true);
  check bool "overflow surfaced" true !overflowed;
  check int "window intact (nothing silently dropped)" 3
    (Session.publisher_buffered pub);
  Session.close_publisher pub

(* ------------------------------------------------------------------ *)
(* Sharded relay: pinned streams, handoffs, zero loss                   *)
(* ------------------------------------------------------------------ *)

(* Three streams on a two-shard cluster: shard 0's round-robin dealing
   is guaranteed to land some connections on the shard that does not own
   their stream, so this exercises the detach/adopt handoff path —
   under HMAC framing, whose per-direction nonces must survive the
   migration. *)
let test_cluster_pubsub_across_shards () =
  let cl = Relay.start (Relay.listen ~shards:2 ~auth_keys:keys ()) in
  Fun.protect ~finally:(fun () -> Relay.stop cl) @@ fun () ->
  let port = Relay.port cl in
  let auth = List.hd keys in
  let streams = [ "flights-a"; "flights-b"; "flights-c" ] in
  let pubs =
    List.map
      (fun stream ->
        let p =
          Session.publisher (cfg ~auth ~port ()) ~stream ~schema:Fx.schema_a
            Abi.x86_64
        in
        (p, Option.get (Session.publisher_format p "ASDOffEvent")))
      streams
  in
  let subs =
    List.map
      (fun stream ->
        let s = Session.subscribe (cfg ~auth ~port ()) ~stream Abi.arm_32 in
        (s, collect s))
      streams
  in
  let n = scale 40 in
  for seq = 0 to n - 1 do
    List.iter (fun (p, fmt) -> Session.publish_value p fmt (event seq)) pubs
  done;
  List.iteri
    (fun i (_, col) ->
      poll
        ~what:(Printf.sprintf "stream %d delivered" i)
        (fun () -> count col >= n))
    subs;
  List.iter
    (fun (s, col) ->
      Session.close_subscriber s;
      Thread.join col.thread)
    subs;
  List.iter (fun (p, _) -> Session.close_publisher p) pubs;
  List.iter
    (fun (_, col) ->
      check bool "zero loss, in order, across shards" true
        (collected col = List.init n Fun.id))
    subs;
  let stats = Relay.stats cl in
  let stat k = Option.value ~default:0 (List.assoc_opt k stats) in
  check bool "wrong-shard connections migrated" true
    (stat "shard_handoffs" >= 1);
  check bool "merged stats count every connection" true
    (stat "connections" >= 6);
  check int "every event relayed exactly once" (3 * n)
    (stat "events_relayed")

(* The chaos-proxy outage scenario against a 2-shard cluster: the
   resubscribing connection lands on whichever shard the round-robin
   points at and must migrate to the stream's pinned shard before the
   descriptor replay — a relay restartless version of severed-link
   recovery. *)
let test_cluster_survives_severed_link () =
  let cl = Relay.start (Relay.listen ~shards:2 ()) in
  Fun.protect ~finally:(fun () -> Relay.stop cl) @@ fun () ->
  let port = Relay.port cl in
  let chaos = Chaos.start ~upstream_port:port () in
  Fun.protect ~finally:(fun () -> Chaos.stop chaos) @@ fun () ->
  let pub =
    Session.publisher (cfg ~port ()) ~stream:"flights" ~schema:Fx.schema_a
      Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let sub =
    Session.subscribe (cfg ~port:(Chaos.port chaos) ()) ~stream:"flights"
      Abi.sparc_32
  in
  let col = collect sub in
  let half = scale 8 in
  for seq = 0 to half - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  poll ~what:"pre-outage events (cluster)" (fun () -> count col >= half);
  Chaos.sever_all chaos;
  poll ~what:"resubscribe through chaos (cluster)" (fun () ->
      Session.subscriber_reconnects sub >= 1);
  for seq = half to (2 * half) - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  poll ~what:"post-outage events (cluster)" (fun () ->
      count col >= 2 * half);
  Session.close_subscriber sub;
  Thread.join col.thread;
  check bool "zero loss through a 2-shard relay" true
    (collected col = List.init (2 * half) Fun.id);
  check int "one format registration across the outage" 1
    (Session.subscriber_stats sub).formats_learned;
  Session.close_publisher pub

(* ------------------------------------------------------------------ *)
(* Overload: governor, retryable busy, graceful degradation             *)
(* ------------------------------------------------------------------ *)

(** The overload acceptance drill (doc/OVERLOAD.md), SIGKILL-free: a
    relay with a tiny governor budget takes an open-loop storm aimed at
    a subscriber that never reads. The shard must go
    [Healthy -> Overloaded] and shed retryably — PUBLISH answered
    [busy] and counted — while control traffic (every STATS poll below,
    and HELLO on fresh connections) keeps flowing; once the hoarder
    disconnects it must return to [Healthy], the busy-shed publisher
    must be admitted on the {e same} connection (no reconnect churn),
    and an acked VIP session that straddled the whole episode must
    account for every accepted frame exactly once. *)
let test_overload_governor_drill () =
  with_store_root @@ fun root ->
  let h =
    Relay.start
      (Relay.listen ~store:(store_cfg root) ~sndbuf:4096 ~max_queue:100_000
         ~governor:(Relay.Governor.config ~budget:32_768 ~busy_retry_ms:30 ())
         ())
  in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let port = Relay.port h in
  (* VIP: an acked publisher session established while healthy *)
  let vip =
    Session.publisher ~acked:true (cfg ~port ()) ~stream:"vip"
      ~schema:Fx.schema_a Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format vip "ASDOffEvent") in
  let batch = scale 8 in
  for seq = 0 to batch - 1 do
    Session.publish_value vip fmt (event seq)
  done;
  Session.flush_acked vip;
  (* the storm: a raw publisher pumping 1KB frames at a subscriber
     that never reads, so the shard's outbound backlog only grows *)
  let adv = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close adv) @@ fun () ->
  Relay.Client.advertise adv ~stream:"storm" ~schema:Fx.schema_a;
  let ssub = Relay.Client.connect ~port () in
  let ssub_closed = ref false in
  Fun.protect
    ~finally:(fun () -> if not !ssub_closed then Relay.Client.close ssub)
  @@ fun () ->
  let _schema, _link = Relay.Client.subscribe ssub ~stream:"storm" in
  let spub = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close spub) @@ fun () ->
  let slink = Relay.Client.publish spub ~stream:"storm" in
  let frame = Bytes.make 1024 'x' in
  Bytes.set frame 0 'M';
  let stop = ref false in
  ignore
    (Thread.create
       (fun () ->
         try
           while not !stop do
             Link.send slink frame
           done
         with _ -> ())
       ());
  (* the relay must stay responsive while the storm drives it into
     overload: every poll below is a served STATS round-trip *)
  poll ~what:"governor overloaded" (fun () ->
      relay_stat ~port "governor_health" = 2);
  (* a publish session arriving mid-overload is shed retryably and
     waits out the backlog on the SAME connection *)
  let late = ref None in
  let late_thread =
    Thread.create
      (fun () ->
        match
          Session.publisher
            (cfg ~max_attempts:500 ~port ())
            ~stream:"vip2" ~schema:Fx.schema_a Abi.x86_64
        with
        | p -> late := Some p
        | exception _ -> ())
      ()
  in
  poll ~what:"late publisher shed with busy" (fun () ->
      relay_stat ~port "publish_busy" >= 1);
  (* shed by class: fresh connections arriving mid-storm still get
     HELLO and STATS served, and their PUBLISH is refused retryably —
     [Busy], never [Error] or a disconnect *)
  for i = 1 to scale 8 do
    let c = Relay.Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Relay.Client.close c) @@ fun () ->
    check bool
      (Printf.sprintf "fresh conn %d: STATS served mid-overload" i)
      true
      (List.assoc_opt "governor_health" (Relay.Client.stats c) = Some 2);
    match Relay.Client.publish c ~stream:"storm" with
    | _ -> Alcotest.failf "fresh conn %d: PUBLISH admitted mid-overload" i
    | exception Relay.Client.Busy _ -> ()
    | exception e ->
      Alcotest.failf "fresh conn %d: PUBLISH failed with %s, not Busy" i
        (Printexc.to_string e)
  done;
  (* vip keeps publishing mid-overload: its data frames are paced by
     TCP (publisher reads paused), never refused, never disconnected *)
  for seq = batch to (2 * batch) - 1 do
    Session.publish_value vip fmt (event seq)
  done;
  (* relieve the pressure: the hoarding subscriber goes away, its
     queued bytes are credited back, and the shard recovers *)
  stop := true;
  ssub_closed := true;
  Relay.Client.close ssub;
  poll ~what:"governor recovered" (fun () ->
      relay_stat ~port "governor_health" = 0);
  Thread.join late_thread;
  (match !late with
  | None -> Alcotest.fail "late publisher never admitted after recovery"
  | Some p ->
    check bool "late publisher waited out busy" true
      (Session.publisher_busy_waits p >= 1);
    check int "late publisher never reconnected" 0
      (Session.publisher_reconnects p);
    Session.close_publisher p);
  (* vip resumes on the same connection and acks everything *)
  for seq = 2 * batch to (3 * batch) - 1 do
    Session.publish_value vip fmt (event seq)
  done;
  Session.flush_acked vip;
  check int "every accepted frame acked durable" (3 * batch)
    (Session.publisher_durable vip);
  check int "vip never reconnected" 0 (Session.publisher_reconnects vip);
  (* zero loss among accepted frames: replay the stream from offset 0 *)
  let sub = Session.subscribe ~from:0 (cfg ~port ()) ~stream:"vip" Abi.arm_32 in
  let col = collect sub in
  poll ~what:"vip stream replayed" (fun () -> count col >= 3 * batch);
  Session.close_subscriber sub;
  Thread.join col.thread;
  check bool "zero loss, in order, across the overload" true
    (collected col = List.init (3 * batch) Fun.id);
  check bool "overload transition counted" true
    (relay_stat ~port "governor_overloaded" >= 1);
  check bool "recovery transition counted" true
    (relay_stat ~port "governor_recovered" >= 1);
  Session.close_publisher vip

let test_ingress_rate_limit_paces_publisher () =
  (* a publisher bursting past the per-connection token bucket has its
     reads paused — pacing through TCP pushback, never loss *)
  let h = Relay.start (Relay.listen ~ingress:(100.0, 8.0) ()) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let port = Relay.port h in
  let pub =
    Session.publisher (cfg ~port ()) ~stream:"paced" ~schema:Fx.schema_a
      Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let sub = Session.subscribe (cfg ~port ()) ~stream:"paced" Abi.arm_32 in
  let col = collect sub in
  let n = scale 60 in
  for seq = 0 to n - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  poll ~what:"paced events delivered" (fun () -> count col >= n);
  Session.close_subscriber sub;
  Thread.join col.thread;
  check bool "throttle engaged" true (relay_stat ~port "ingress_throttled" >= 1);
  check bool "pacing drops nothing" true (collected col = List.init n Fun.id);
  Session.close_publisher pub

(* ------------------------------------------------------------------ *)
(* Discovery under a hung (not dead) metadata server                    *)
(* ------------------------------------------------------------------ *)

let test_discovery_falls_back_within_deadline () =
  (* a server that accepts and never answers — the failure mode a
     connection-refused test never exercises. Without a deadline the
     fetch would hang forever; with the fetcher's own socket deadline,
     the chain must reach the compiled-in fallback promptly. *)
  let server = Http.serve_table ~port:0 [ ("/flight.xsd", Fx.schema_a) ] in
  Fun.protect ~finally:(fun () -> Http.shutdown server) @@ fun () ->
  let chaos = Chaos.start ~upstream_port:(Http.port server) () in
  Fun.protect ~finally:(fun () -> Chaos.stop chaos) @@ fun () ->
  Chaos.set_fault chaos ~dir:Chaos.Down Chaos.Blackhole;
  (* Http.get's own socket deadline also fires cleanly *)
  (match
     Http.get ~port:(Chaos.port chaos) ~path:"/flight.xsd" ~timeout_s:0.2 ()
   with
  | _ -> Alcotest.fail "blackholed GET returned"
  | exception Http.Http_error m ->
    check bool "timeout named" true (Omf_testkit.Strings.contains m "timeout"));
  let catalog = Catalog.create Abi.x86_64 in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Discovery.discover catalog
      [ Discovery.from_fetcher ~label:"http://hung-metaserver/flight.xsd"
          (fun () ->
            Http.get ~port:(Chaos.port chaos) ~path:"/flight.xsd"
              ~timeout_s:0.3 ())
      ; Discovery.compiled ~label:"compiled-in" [ Fx.decl_a ] ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.string "fell back to compiled metadata" "compiled-in"
    outcome.Discovery.source;
  check bool "still functional" true (Option.is_some (Catalog.find catalog "ASDOffEvent"));
  check bool "within the deadline budget (0.3s + slack)" true
    (elapsed < 5.0)

(** relayd started with a busy [--metrics-port]: the relay is already
    listening when the metrics bind fails, so relayd must stop it and
    exit with the bind error a busy [--port] gets, not an uncaught
    exception. Its stdout keeps the "listening on" line first.
    Requires the relayd binary via [OMF_RELAYD]; skipped when absent. *)
let test_relayd_busy_metrics_port () =
  match Sys.getenv_opt "OMF_RELAYD" with
  | None -> Alcotest.skip ()
  | Some exe ->
    Omf_testkit.Listen.with_busy_port @@ fun busy ->
    let out_r, out_w = Unix.pipe ~cloexec:true ()
    and err_r, err_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process exe
        [| exe; "--port"; "0"; "--metrics-port"; string_of_int busy |]
        Unix.stdin out_w err_w
    in
    List.iter Unix.close [ out_w; err_w ];
    let status = ref None in
    Fun.protect ~finally:(fun () ->
        if !status = None then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        end)
    @@ fun () ->
    poll ~what:"relayd exit" (fun () ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _, st ->
          status := Some st;
          true);
    let read_all fd =
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          In_channel.input_all ic)
    in
    let out = read_all out_r and err = read_all err_r in
    let contains = Omf_testkit.Strings.contains in
    check bool "exit 124, as for a busy --port" true
      (!status = Some (Unix.WEXITED 124));
    check bool "bind error names the metrics port" true
      (contains err (Printf.sprintf "bind 127.0.0.1:%d: " busy));
    check bool "no uncaught exception" false
      (contains err "uncaught exception");
    check bool "relay stopped before exit" true
      (contains err "shard 0 stopped");
    check bool "stdout starts with the listening line" true
      (String.starts_with ~prefix:"relayd: listening on " out)

(* [exe ARGS] run to its end: its status, stdout and stderr *)
let run_exe exe args =
  let out_r, out_w = Unix.pipe ~cloexec:true ()
  and err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w
      err_w
  in
  List.iter Unix.close [ out_w; err_w ];
  let out = Unix.in_channel_of_descr out_r
  and err = Unix.in_channel_of_descr err_r in
  let o = In_channel.input_all out and e = In_channel.input_all err in
  List.iter close_in [ out; err ];
  (snd (Unix.waitpid [] pid), o, e)

(** registryd as a process, driven from the shell's side: its command
    line, then [xml2wire register] and [xml2wire fetch] against it over
    the frames, across a SIGKILL and a restart on the same store.
    Requires registryd via [OMF_REGISTRYD] and the xml2wire tool via
    [OMF_XML2WIRE]; skipped when either is absent. *)
let test_registryd () =
  match (Sys.getenv_opt "OMF_REGISTRYD", Sys.getenv_opt "OMF_XML2WIRE") with
  | None, _ | _, None -> Alcotest.skip ()
  | Some registryd, Some xml2wire ->
    let contains = Omf_testkit.Strings.contains in
    let status, help, _ = run_exe registryd [ "--help" ] in
    check bool "--help exits 0" true (status = Unix.WEXITED 0);
    List.iter
      (fun o ->
        check bool ("--help names " ^ o) true (contains help ("  " ^ o ^ " ")))
      [ "--port"; "-p"; "--metrics-port"; "--host"; "--store"; "--compat"
      ; "--verbose"; "-v"; "--version"; "--help" ];
    check bool "--help names no --http-port" false
      (contains help "--http-port");
    let status, _, err = run_exe registryd [ "--http-port"; "1" ] in
    check bool "--http-port: exit 124" true (status = Unix.WEXITED 124);
    check bool "--http-port named" true (contains err "--http-port");
    with_store_root @@ fun root ->
    Unix.mkdir root 0o700;
    let file name text =
      let path = Filename.concat root name in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      path
    in
    let schema = file "flight.xsd" Fx.schema_a
    and removed =
      file "no-equip.xsd"
        (Omf_testkit.Strings.replace
           ~sub:{|    <xsd:element name="equip" type="xsd:string" />
|}
           ~by:"" Fx.schema_a)
    and store = Filename.concat root "store" in
    (* a registryd on [store] until [f] returns or it is killed *)
    let with_registryd f =
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process registryd
          [| registryd; "--port"; "0"; "--store"; store |]
          null out_w null
      in
      List.iter Unix.close [ out_w; null ];
      let out = Unix.in_channel_of_descr out_r in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          close_in_noerr out)
      @@ fun () ->
      (* "registryd: N subject(s), mode M, frames on HOST:PORT" *)
      let banner = input_line out in
      let colon = String.rindex banner ':' in
      f (String.sub banner (colon + 1) (String.length banner - colon - 1))
    in
    let cli args = run_exe xml2wire args in
    let registered = ref "" in
    with_registryd (fun port ->
        let register path =
          cli [ "register"; "flights"; path; "--port"; port ]
        in
        let status, out, _ = register schema in
        check bool "register exits 0" true (status = Unix.WEXITED 0);
        check bool "register prints version 1" true
          (String.starts_with ~prefix:"version 1 fingerprint " out);
        registered := out;
        let status, again, _ = register schema in
        check bool "again: exit 0" true (status = Unix.WEXITED 0);
        check Alcotest.string "again: the same version" out again;
        let status, diff, err = register removed in
        check bool "a removed field: exit 1" true (status = Unix.WEXITED 1);
        check bool "the diff names the field" true (contains diff "equip");
        check bool "the gate is named" true (contains err "incompatible");
        let status, doc, _ =
          cli [ "fetch"; "flights"; "latest"; "--port"; port ]
        in
        check bool "fetch exits 0" true (status = Unix.WEXITED 0);
        check Alcotest.string "fetch prints the document" Fx.schema_a doc;
        (* the fetched document registers as the same fingerprint *)
        let _, refetched, _ = register (file "fetched.xsd" doc) in
        check Alcotest.string "same fingerprint" out refetched);
    (* the first registryd was SIGKILLed: every registration it
       acknowledged is on the store *)
    with_registryd (fun port ->
        let status, doc, _ = cli [ "fetch"; "flights"; "1"; "--port"; port ] in
        check bool "fetch after restart exits 0" true (status = Unix.WEXITED 0);
        check Alcotest.string "version 1 after restart" Fx.schema_a doc;
        let _, latest, _ =
          cli [ "register"; "flights"; schema; "--port"; port ]
        in
        check Alcotest.string "still version 1" !registered latest)

(** relayd's command line: [--help] names every option, a value is
    read from [--opt V] and from [--opt=V], [--auth-key] repeats, a bad
    option or value is a usage error (exit 124, naming it), and
    [--version] prints the version. Requires the relayd binary via
    [OMF_RELAYD]; skipped when absent. *)
let test_relayd_command_line () =
  match Sys.getenv_opt "OMF_RELAYD" with
  | None -> Alcotest.skip ()
  | Some exe ->
    let contains = Omf_testkit.Strings.contains in
    let spawn args =
      let out_r, out_w = Unix.pipe ~cloexec:true ()
      and err_r, err_w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin
          out_w err_w
      in
      List.iter Unix.close [ out_w; err_w ];
      (pid, Unix.in_channel_of_descr out_r, Unix.in_channel_of_descr err_r)
    in
    (* a run that ends by itself: its status, stdout and stderr *)
    let finished args =
      let pid, out, err = spawn args in
      let o = In_channel.input_all out and e = In_channel.input_all err in
      List.iter close_in [ out; err ];
      (snd (Unix.waitpid [] pid), o, e)
    in
    (* a relay that starts: its first stdout line, then it is killed *)
    let listening args =
      let pid, out, err = spawn args in
      Fun.protect
        ~finally:(fun () ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          List.iter close_in [ out; err ])
        (fun () -> input_line out)
    in
    let status, help, _ = finished [ "--help" ] in
    check bool "--help exits 0" true (status = Unix.WEXITED 0);
    List.iter
      (fun o ->
        check bool ("--help names " ^ o) true (contains help ("  " ^ o ^ " ")))
      [ "--port"; "-p"; "--host"; "--policy"; "--max-queue"; "--evict-grace"
      ; "--drain"; "--auth-key"; "--shards"
      ; "--metrics-port"; "--store"; "--store-fsync"; "--store-segment-mb"
      ; "--store-retain-segments"; "--store-retain-mb"; "--store-retain-age-s"
      ; "--store-compress"; "--relay-id"; "--mirror"; "--mirror-promote-on-loss"
      ; "--mirror-rescan"; "--mirror-compress"; "--governor-budget"
      ; "--governor-retry-ms"; "--trace-sample"; "--trace-buffer"
      ; "--trace-slow-us"; "--ingress-rate"; "--ingress-burst"; "--verbose"
      ; "-v"; "--version"; "--help" ];
    List.iter
      (fun line ->
        if String.length line > 80 then
          Alcotest.failf "--help line of %d columns: %s" (String.length line)
            line)
      (String.split_on_char '\n' help);
    List.iter
      (fun args ->
        check bool
          (String.concat " " args ^ " listens")
          true
          (String.starts_with ~prefix:"relayd: listening on 127.0.0.1:"
             (listening args)))
      [ [ "--port=0" ]; [ "--port"; "0" ] ];
    check bool "two --auth-key flags" true
      (contains
         (listening
            [ "--port"; "0"; "--auth-key"; "a=one"; "--auth-key=b=two" ])
         "auth keys 2");
    List.iter
      (fun (args, bad) ->
        let status, _, err = finished args in
        check bool (bad ^ ": exit 124") true (status = Unix.WEXITED 124);
        check bool (bad ^ " named") true (contains err bad))
      [ ([ "--bogus" ], "--bogus"); ([ "--policy"; "nope" ], "nope") ];
    let status, out, _ = finished [ "--version" ] in
    check bool "--version exits 0" true (status = Unix.WEXITED 0);
    check Alcotest.string "--version" "1.0.0\n" out

(* ------------------------------------------------------------------ *)
(* relayd as a process: accept errors, signal drain, footprint          *)
(* ------------------------------------------------------------------ *)

type relayd = {
  pid : int;
  mutable port : int;  (** read from its listening line *)
  out : in_channel;  (** relayd's stdout, after its listening line *)
  mutable status : Unix.process_status option;  (** once reaped *)
}

(** Run [f] on a relayd started as [relayd --port 0 ARGS] ([OMF_RELAYD];
    the case is skipped without it), under [ulimit -n fd_limit] when
    given. Its port is read from its listening line; it is SIGKILLed
    afterwards if [f] did not reap it. *)
let with_relayd ?fd_limit (args : string list) (f : relayd -> unit) =
  match Sys.getenv_opt "OMF_RELAYD" with
  | None -> Alcotest.skip ()
  | Some exe ->
    let argv = Array.of_list (exe :: "--port" :: "0" :: args) in
    let prog, argv =
      match fd_limit with
      | None -> (exe, argv)
      | Some n ->
        ( "/bin/sh"
        , Array.append
            [| "sh"; "-c"; Printf.sprintf "ulimit -n %d; exec \"$0\" \"$@\"" n |]
            argv )
    in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid = Unix.create_process prog argv null out_w null in
    List.iter Unix.close [ out_w; null ];
    let out = Unix.in_channel_of_descr out_r in
    let r = { pid; port = 0; out; status = None } in
    Fun.protect
      ~finally:(fun () ->
        if r.status = None then (
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ());
        close_in_noerr out)
    @@ fun () ->
    r.port <-
      Scanf.sscanf (input_line out) "relayd: listening on %_s@:%d" Fun.id;
    f r

(** Reap [r] within [within_s] seconds, or fail. *)
let wait_exit (r : relayd) ~within_s =
  poll ~deadline_s:within_s ~what:"relayd exit" (fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] r.pid with
      | 0, _ -> false
      | _, st ->
        r.status <- Some st;
        true)

let signal_name s =
  List.assoc_opt s
    [ (Sys.sigint, "SIGINT"); (Sys.sigterm, "SIGTERM"); (Sys.sigkill, "SIGKILL")
    ; (Sys.sigsegv, "SIGSEGV"); (Sys.sigabrt, "SIGABRT"); (Sys.sigpipe, "SIGPIPE") ]
  |> Option.value ~default:(Printf.sprintf "signal %d" s)

(* what became of a reaped relayd, for failure messages *)
let status_text = function
  | None -> "not reaped"
  | Some (Unix.WEXITED n) -> Printf.sprintf "exited %d" n
  | Some (Unix.WSIGNALED s) -> "killed by " ^ signal_name s
  | Some (Unix.WSTOPPED s) -> "stopped by " ^ signal_name s

let hello_served ~port =
  match
    Relay.Client.connect ~port ~connect_timeout_s:0.5 ~io_timeout_s:0.5 ()
  with
  | c ->
    Relay.Client.close c;
    true
  | exception Relay.Client.Error _ -> false

(* a limit of this shell's, [ulimit FLAG]; [max_int] for "unlimited" *)
let ulimit flag =
  let ic =
    Unix.open_process_args_in "/bin/sh" [| "sh"; "-c"; "ulimit " ^ flag |]
  in
  let line = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  Option.value ~default:max_int (int_of_string_opt (String.trim line))

(** relayd past descriptor 1023: under [ulimit -n 4096], 1 100 idle
    connections number relayd's descriptors past [select]'s
    [FD_SETSIZE] (1024), and HELLO and STATS must still be served. This
    process holds as many descriptors, so its own dial ([Tcp.dial]'s
    connect wait) goes past 1023 too. Skipped where the hard limit, or
    this process's own limit, is below what the case opens. *)
let test_relayd_past_fd_1023 () =
  let n = 1100 in
  let hard = ulimit "-Hn" in
  if hard < n || ulimit "-n" < n + 64 then Alcotest.skip ();
  with_relayd ~fd_limit:(Int.min 4096 hard) [] @@ fun r ->
  let clients = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Unix.close !clients) @@ fun () ->
  for _ = 1 to n do
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    clients := s :: !clients;
    Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, r.port))
  done;
  poll ~what:"HELLO served past fd 1023" (fun () ->
      hello_served ~port:r.port);
  check bool "every connection accepted" true
    (relay_stat ~port:r.port "connections" > n);
  check bool "relayd still running" true
    (Unix.waitpid [ Unix.WNOHANG ] r.pid |> fst = 0)

(** relayd under [ulimit -n 16] with 20 clients in its backlog: accept
    runs out of descriptors (EMFILE). The clients then close; once
    relayd has read their EOFs it has descriptors again, and a new
    client must be served, with the failed accepts counted. A relay
    that gave up accepting at the first error stays deaf here. *)
let test_relayd_accept_survives_emfile () =
  with_relayd ~fd_limit:16 [] @@ fun r ->
  let clients =
    List.init 20 (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, r.port));
        s)
  in
  Thread.delay 0.3;
  List.iter Unix.close clients;
  poll ~what:"HELLO served after the descriptors came back" (fun () ->
      hello_served ~port:r.port);
  check bool "accept_errors counted" true
    (relay_stat ~port:r.port "accept_errors" >= 1)

(** doc/REACTOR.md §6: on [signal], relayd stops accepting and reading,
    flushes what it holds to the subscriber, prints its final stats and
    exits 0 within its drain deadline. The signal goes out as soon as
    the relay has taken in the last of [n] events, while the subscriber
    is still reading them. *)
let relayd_drains ~signal ~shards () =
  let drain_s = 2.0 in
  with_relayd
    [ "--shards"; string_of_int shards; "--drain"; string_of_float drain_s ]
  @@ fun r ->
  let pub =
    Session.publisher (cfg ~port:r.port ()) ~stream:"flights"
      ~schema:Fx.schema_a Abi.x86_64
  in
  let fmt = Option.get (Session.publisher_format pub "ASDOffEvent") in
  let sub =
    Session.subscribe
      (Session.config ~port:r.port ~max_attempts:0 ())
      ~stream:"flights" Abi.sparc_32
  in
  let seqs = ref [] in
  let reader =
    Thread.create
      (fun () ->
        let rec go () =
          match Session.recv_subscriber sub with
          | Some (_, v) ->
            seqs := seq_of v :: !seqs;
            go ()
          | None | (exception _) -> ()
        in
        go ())
      ()
  in
  let n = scale 2000 in
  for seq = 0 to n - 1 do
    Session.publish_value pub fmt (event seq)
  done;
  poll ~what:"every event taken in" (fun () ->
      relay_stat ~port:r.port "events_relayed" >= n);
  Unix.kill r.pid signal;
  wait_exit r ~within_s:(drain_s +. 1.0);
  Thread.join reader;
  Session.close_publisher pub;
  Session.close_subscriber sub;
  check bool
    ("exit 0, relayd " ^ status_text r.status)
    true
    (r.status = Some (Unix.WEXITED 0));
  check bool "final stats printed" true
    (Omf_testkit.Strings.contains (In_channel.input_all r.out)
       "relayd: final stats");
  check int "subscriber got every event" n (List.length !seqs);
  check bool "in order" true (List.rev !seqs = List.init n Fun.id)

(** relayd runs shard 0 on its main thread, which also accepts: with
    one shard it spawns no domain and no acceptor thread, so it runs
    at most three threads (main, the signal wait, the runtime's tick
    thread). Read from /proc, so Linux only. *)
let test_relayd_footprint () =
  if not (Sys.file_exists "/proc/self/status") then Alcotest.skip ();
  with_relayd [] @@ fun r ->
  poll ~what:"HELLO served" (fun () -> hello_served ~port:r.port);
  let threads =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" r.pid)
    @@ fun ic ->
    let rec find () =
      match In_channel.input_line ic with
      | Some l when String.starts_with ~prefix:"Threads:" l ->
        Scanf.sscanf l "Threads: %d" Fun.id
      | Some _ -> find ()
      | None -> Alcotest.fail "no Threads: line"
    in
    find ()
  in
  check bool (Printf.sprintf "at most 3 threads (%d)" threads) true
    (threads <= 3)

let () =
  Alcotest.run "faults"
    [ ( "client-errors",
        [ Alcotest.test_case "connect refused -> Client.Error" `Quick
            test_connect_refused_is_client_error
        ; Alcotest.test_case "HELLO to a deaf listener times out" `Quick
            test_hello_deadline
        ; Alcotest.test_case "handshake failure closes socket" `Quick
            test_handshake_failure_closes_socket ] )
    ; ( "hmac",
        [ Alcotest.test_case "authenticated pub/sub end-to-end" `Quick
            test_auth_pubsub_end_to_end
        ; Alcotest.test_case "forged frames counted, then closed" `Quick
            test_forged_frames_counted_then_closed
        ; Alcotest.test_case "corrupted handshake counted (chaos)" `Quick
            test_corrupted_handshake_counted_via_chaos ] )
    ; ( "sessions",
        [ Alcotest.test_case "survives relayd kill+restart" `Quick
            test_session_survives_relayd_restart
        ; Alcotest.test_case "survives severed links (chaos)" `Quick
            test_session_survives_severed_link
        ; Alcotest.test_case "publisher overflow is explicit" `Quick
            test_publisher_overflow_is_explicit ] )
    ; ( "store",
        [ Alcotest.test_case "store-backed restart: zero loss, zero dup"
            `Quick test_store_relay_restart_zero_loss
        ; Alcotest.test_case "relayd SIGKILL + restart: zero loss, zero dup"
            `Quick test_store_survives_sigkill
        ; Alcotest.test_case "acked resume with watermark past the window"
            `Quick test_acked_resume_watermark_ahead ] )
    ; ( "mirror",
        [ Alcotest.test_case "source SIGKILL: promote-on-loss failover"
            `Quick (mirror_failover_sigkill ~compress:false)
        ; Alcotest.test_case
            "source SIGKILL on a compressed link (--mirror-compress)" `Quick
            (mirror_failover_sigkill ~compress:true) ] )
    ; ( "cluster",
        [ Alcotest.test_case "2 shards: handoffs, zero loss, HMAC" `Quick
            test_cluster_pubsub_across_shards
        ; Alcotest.test_case "2 shards survive severed links (chaos)" `Quick
            test_cluster_survives_severed_link ] )
    ; ( "overload",
        [ Alcotest.test_case "governor drill: shed, recover, zero loss"
            `Quick test_overload_governor_drill
        ; Alcotest.test_case "ingress token bucket paces, never drops"
            `Quick test_ingress_rate_limit_paces_publisher ] )
    ; ( "relayd",
        [ Alcotest.test_case "busy --metrics-port: clean bind error" `Quick
            test_relayd_busy_metrics_port
        ; Alcotest.test_case "command line: options, errors, --version"
            `Quick test_relayd_command_line
        ; Alcotest.test_case "accept survives EMFILE (ulimit -n 16)" `Quick
            test_relayd_accept_survives_emfile
        ; Alcotest.test_case "serves past fd 1023 (ulimit -n 4096)" `Quick
            test_relayd_past_fd_1023
        ; Alcotest.test_case "SIGINT drains every event" `Quick
            (relayd_drains ~signal:Sys.sigint ~shards:1)
        ; Alcotest.test_case "SIGTERM drains every event" `Quick
            (relayd_drains ~signal:Sys.sigterm ~shards:1)
        ; Alcotest.test_case "SIGINT drains 2 shards" `Quick
            (relayd_drains ~signal:Sys.sigint ~shards:2)
        ; Alcotest.test_case "one shard: at most 3 threads" `Quick
            test_relayd_footprint ] )
    ; ( "registryd",
        [ Alcotest.test_case "register and fetch with xml2wire, SIGKILL"
            `Quick test_registryd ] )
    ; ( "discovery",
        [ Alcotest.test_case "falls back within deadline (blackhole)" `Quick
            test_discovery_falls_back_within_deadline ] ) ]
