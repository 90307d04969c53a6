(** A relay with one publisher and one subscriber, both on links of one
    negotiated frame mode, and the words its shard allocates per event
    it relays between them, read from the shard's own [gc.minor_words]
    in STATS.

    Shared by test_relay's allocation budget and bench/alloc.exe. *)

module Relay = Omf_relay.Relay
module Link = Omf_transport.Link

let key = ("relaypair", "relaypair-secret")

(** [words_per_event mode frame] relays 5 000 copies of [frame] (an
    event frame: kind byte, then the message) to warm the relay up (a
    connection keeps as many spare queue entries as the most one flush
    found queued, so its first full 64 KiB reads must be in the
    warm-up), then [events] more, and returns the shard's minor-heap words per
    relayed event over the second batch. The publisher sends back to
    back while a thread reads the subscriber's link, so the relay reads
    the frames in batches, as under a saturated closed loop, and the
    loop rounds cost little per event. Raises [Failure] if a frame goes
    missing. *)
let words_per_event ?(events = 20_000) (mode : Linkpair.mode) (frame : Bytes.t)
    =
  let r = Relay.start (Relay.listen ~auth_keys:[ key ] ()) in
  let port = Relay.port r in
  Fun.protect ~finally:(fun () -> Relay.stop r) @@ fun () ->
  let connect () =
    Relay.Client.connect ~port
      ?auth:(if mode.mac then Some key else None)
      ~compress:mode.comp ~io_timeout_s:10.0 ()
  in
  let pub = connect () in
  Relay.Client.advertise pub ~stream:"alloc"
    ~schema:Omf_fixtures.Paper_structs.schema_a;
  let link = Relay.Client.publish pub ~stream:"alloc" in
  let sub = connect () in
  let _, from_relay = Relay.Client.subscribe sub ~stream:"alloc" in
  let ctl = Relay.Client.connect ~port () in
  let stat key = List.assoc key (Relay.Client.stats ctl) in
  let relay k =
    let received = ref 0 in
    let reader =
      Thread.create
        (fun () ->
          while !received < k && Link.recv from_relay <> None do
            incr received
          done)
        ()
    in
    for _ = 1 to k do
      Link.send link frame
    done;
    Thread.join reader;
    if !received < k then
      failwith (Printf.sprintf "relaypair: %d of %d frames arrived" !received k)
  in
  relay 5000;
  let w0 = stat "gc.minor_words" and e0 = stat "events_relayed" in
  relay events;
  let w1 = stat "gc.minor_words" and e1 = stat "events_relayed" in
  List.iter Relay.Client.close [ ctl; sub; pub ];
  if e1 - e0 <> events then
    failwith (Printf.sprintf "relaypair: %d of %d relayed" (e1 - e0) events);
  Float.of_int (w1 - w0) /. Float.of_int events
