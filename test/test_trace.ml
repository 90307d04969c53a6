(** Tests for sampled end-to-end tracing (lib/trace, doc/TRACE.md,
    PROTOCOLS.md §17): the context codec, the head sampler, the
    fixed-capacity span ring, the slow-span always-record gate, the
    export formats, and the integration path — a traced publish
    session whose spans cover admission, store append, fan-out
    enqueue, socket flush and delivery on a live relay, then the same
    trace crossing a two-relay mirror chain and coming back out of
    [GET /trace/spans].

    Timing-sensitive (live relays, mirror rescans): runs under
    [dune build @trace] and the smoke alias, not tier-1 [runtest]. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Relay = Omf_relay.Relay
module Session = Omf_relay.Relay_session
module Trace = Omf_trace.Trace
module Mirror = Omf_mirror.Mirror
module Http = Omf_httpd.Http
module Fx = Omf_fixtures.Paper_structs
module Catalog = Omf_xml2wire.Catalog
module X2W = Omf_xml2wire.Xml2wire

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Context codec                                                        *)
(* ------------------------------------------------------------------ *)

let test_ctx_codec () =
  let ctx = Trace.make ~sampled:true () in
  let s = Trace.to_string ctx in
  check int "fixed width" 36 (String.length s);
  (match Trace.of_string s with
  | Some c ->
    check bool "trace id round-trips" true (Int64.equal c.trace_id ctx.trace_id);
    check bool "span id round-trips" true (Int64.equal c.span_id ctx.span_id);
    check bool "sampled round-trips" true c.sampled
  | None -> Alcotest.fail "own output did not parse");
  let unsampled = Trace.make ~sampled:false () in
  (match Trace.of_string (Trace.to_string unsampled) with
  | Some c -> check bool "unsampled flag round-trips" false c.sampled
  | None -> Alcotest.fail "unsampled ctx did not parse");
  let fresh = Trace.make ~sampled:true () in
  check bool "fresh contexts differ" false
    (Int64.equal ctx.trace_id fresh.trace_id);
  (* malformed inputs must parse to None, never raise *)
  List.iter
    (fun bad ->
      match Trace.of_string bad with
      | None -> ()
      | Some _ -> Alcotest.failf "parsed garbage %S" bad)
    [ ""
    ; "hello"
    ; "0123456789abcdef-0123456789abcdef"          (* no flags *)
    ; "0123456789abcdef:0123456789abcdef:01"       (* wrong separator *)
    ; "0123456789abcdeg-0123456789abcdef-01"       (* bad hex *)
    ; "0123456789abcdef-0123456789abcdef-01x"      (* trailing junk *)
    ; String.make 35 'z' ]

(* ------------------------------------------------------------------ *)
(* Sampler                                                              *)
(* ------------------------------------------------------------------ *)

let test_sampler_rate () =
  let always = Trace.collector (Trace.settings ~sample:1.0 ()) in
  for _ = 1 to 100 do
    if not (Trace.sample always) then Alcotest.fail "rate 1.0 said no"
  done;
  let never = Trace.collector (Trace.settings ~sample:0.0 ()) in
  for _ = 1 to 100 do
    if Trace.sample never then Alcotest.fail "rate 0.0 said yes"
  done;
  let half = Trace.collector (Trace.settings ~sample:0.5 ()) in
  let hits = ref 0 in
  let n = 4000 in
  for _ = 1 to n do
    if Trace.sample half then incr hits
  done;
  check bool "rate 0.5 lands near half" true
    (!hits > (2 * n) / 5 && !hits < (3 * n) / 5)

(* ------------------------------------------------------------------ *)
(* Span ring                                                            *)
(* ------------------------------------------------------------------ *)

let test_ring_capacity () =
  (* buffer is clamped to at least 16 *)
  let col = Trace.collector (Trace.settings ~sample:1.0 ~buffer:1 ()) in
  for i = 0 to 39 do
    Trace.record col ~trace:7L ~parent:1L ~stage:"s" ~stream:"x"
      ~start_us:(1000 + i) ~dur_us:i
  done;
  let spans = Trace.spans col in
  check int "ring holds the clamped capacity" 16 (List.length spans);
  check int "all recordings counted" 40 (Trace.recorded col);
  check int "wrap-around counted as dropped" 24 (Trace.dropped col);
  (* survivors are the newest, oldest first *)
  check (Alcotest.list int) "newest 16, oldest first"
    (List.init 16 (fun i -> 24 + i))
    (List.map (fun sp -> sp.Trace.sp_dur_us) spans);
  Trace.clear col;
  check int "clear empties the ring" 0 (List.length (Trace.spans col))

let test_slow_gate () =
  let col = Trace.collector (Trace.settings ~sample:0.0 ~slow_us:500 ()) in
  check bool "sampled records regardless of duration" true
    (Trace.should_record col ~sampled:true ~dur_us:0);
  check bool "unsampled fast span skipped" false
    (Trace.should_record col ~sampled:false ~dur_us:499);
  check bool "unsampled slow span always recorded" true
    (Trace.should_record col ~sampled:false ~dur_us:500);
  let off = Trace.collector (Trace.settings ~sample:0.0 ()) in
  check bool "slow_us 0 disables the slow path" false
    (Trace.should_record off ~sampled:false ~dur_us:max_int)

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

let test_export_shapes () =
  let col = Trace.collector ~shard:3 (Trace.settings ~sample:1.0 ()) in
  Trace.record col ~trace:0xabcL ~parent:2L ~stage:"store_append"
    ~stream:"flights" ~start_us:1 ~dur_us:5;
  Trace.record col ~trace:0xabcL ~parent:2L ~stage:"deliver" ~stream:"flights"
    ~start_us:200 ~dur_us:7;
  let spans = Trace.spans col in
  let json = Trace.chrome_json spans in
  check bool "complete events" true (contains json "\"ph\":\"X\"");
  check bool "shard becomes pid" true (contains json "\"pid\":3");
  check bool "stage named" true (contains json "\"name\":\"store_append\"");
  check bool "stream in args" true (contains json "\"stream\":\"flights\"");
  check bool "trace id in args" true
    (contains json (Trace.id_to_string 0xabcL));
  check string "empty span list" "{\"traceEvents\":[]}" (Trace.chrome_json [])

(* ------------------------------------------------------------------ *)
(* Integration helpers (test_mirror idioms)                             *)
(* ------------------------------------------------------------------ *)

let with_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-trace-%d-%d" (Unix.getpid ()) (Random.int 1000000))
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
  { (Relay.Store.default_config ~root) with fsync = Relay.Store.Interval 0.02 }

let event seq = Value.set_field Fx.value_a "fltNum" (Value.Int (Int64.of_int seq))

let make_publisher ?trace ~port ~stream () =
  let client = Relay.Client.connect ~port () in
  Relay.Client.advertise client ~stream ~schema:Fx.schema_a;
  let link = Relay.Client.publish ?trace client ~stream in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let sender = Endpoint.Sender.create link (Memory.create Abi.x86_64) in
  (client, sender, fmt)

let publish sender fmt seq = Endpoint.Sender.send_value sender fmt (event seq)

let relay_stat ~port key =
  match Relay.Client.connect ~port () with
  | c ->
    let v =
      Option.value ~default:0 (List.assoc_opt key (Relay.Client.stats c))
    in
    Relay.Client.close c;
    v
  | exception Relay.Client.Error _ -> 0

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

(* stages recorded for [trace_id] in [spans] *)
let stages_of ~trace_id spans =
  List.sort_uniq compare
    (List.filter_map
       (fun sp ->
         if Int64.equal sp.Trace.sp_trace trace_id then
           Some sp.Trace.sp_stage
         else None)
       spans)

let has_stages ~trace_id ~want spans =
  let got = stages_of ~trace_id spans in
  List.for_all (fun s -> List.mem s got) want

(* /trace/spans as relayd serves it, beside /metrics *)
let serve_spans spans =
  Http.serve ~port:0
    (Http.metrics_handler
       ~routes:
         [ ( "/trace/spans"
           , fun () ->
               Http.ok ~content_type:"application/json"
                 (Trace.chrome_json (spans ())) ) ]
       [])

(* the spans of [stage] in a /trace/spans body: one event per span *)
let span_count body stage =
  let needle = Printf.sprintf "\"name\":\"%s\"" stage in
  let nl = String.length needle in
  let rec go i n =
    if i + nl > String.length body then n
    else if String.sub body i nl = needle then go (i + nl) (n + 1)
    else go (i + 1) n
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Single relay: a traced session covers the whole frame path           *)
(* ------------------------------------------------------------------ *)

let test_single_relay_stages () =
  with_root @@ fun root ->
  let h =
    Relay.start
      (Relay.listen ~trace:(Trace.settings ~sample:0.0 ())
         ~store:(store_cfg root) ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let ctx = Trace.make ~sampled:true () in
  let pub, sender, fmt =
    make_publisher ~trace:ctx ~port ~stream:"flights" ()
  in
  (* a live subscriber so fan-out, flush and delivery all happen *)
  let sc = Relay.Client.connect ~port () in
  let _schema, sub_link = Relay.Client.subscribe sc ~stream:"flights" in
  let n = 10 in
  for seq = 0 to n - 1 do
    publish sender fmt seq
  done;
  let seen = ref 0 in
  while !seen < n do
    match Link.recv sub_link with
    | Some f when Bytes.length f > 0 && Bytes.get f 0 = 'M' -> incr seen
    | Some _ -> ()
    | None -> Alcotest.fail "subscriber closed early"
  done;
  let want =
    [ "publish_admit"; "store_append"; "fanout_enqueue"; "flush"; "deliver" ]
  in
  poll ~what:"all five stages recorded" (fun () ->
      has_stages ~trace_id:ctx.Trace.trace_id ~want
        (Relay.trace_spans h));
  let spans = Relay.trace_spans h in
  (* every span hangs off the publisher's context *)
  List.iter
    (fun sp ->
      check bool "span belongs to the session trace" true
        (Int64.equal sp.Trace.sp_trace ctx.Trace.trace_id);
      check bool "parented on the minting hop" true
        (Int64.equal sp.Trace.sp_parent ctx.Trace.span_id);
      check string "stream recorded" "flights" sp.Trace.sp_stream)
    spans;
  (* per-stage histograms rode the counters: visible over STATS *)
  let stats = relay_stat ~port in
  check bool "stage histogram in merged stats" true
    (stats "hist.stage_us.publish_admit.count" >= n);
  (* DESCRIBE serves the session's context for late subscribers *)
  let c = Relay.Client.connect ~port () in
  let meta, _schema = Relay.Client.describe c ~stream:"flights" in
  (match Option.bind (List.assoc_opt "trace" meta) Trace.of_string with
  | Some served ->
    check bool "describe serves the publish context" true
      (Int64.equal served.Trace.trace_id ctx.Trace.trace_id)
  | None -> Alcotest.fail "describe did not serve trace= metadata");
  Relay.Client.close c;
  Relay.Client.close sc;
  Relay.Client.close pub

(* The stage-latency histograms and the span export are fed by one
   record gate: while the span ring has not wrapped, every stage's
   [hist.stage_us.<stage>.count] in STATS is its span count on
   /trace/spans. An untraced publisher beside the traced one sends
   frames the gate turns away from both. *)
let test_stage_histograms_match_spans () =
  with_root @@ fun root ->
  let buffer = 4096 in
  let h =
    Relay.start
      (Relay.listen ~trace:(Trace.settings ~sample:0.0 ~buffer ())
         ~store:(store_cfg root) ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let ctx = Trace.make ~sampled:true () in
  let traced = make_publisher ~trace:ctx ~port ~stream:"flights" () in
  let quiet = make_publisher ~port ~stream:"quiet" () in
  let n = 40 in
  List.iter
    (fun (stream, (_, sender, fmt)) ->
      let sc = Relay.Client.connect ~port () in
      let _schema, sub_link = Relay.Client.subscribe sc ~stream in
      for seq = 0 to n - 1 do
        publish sender fmt seq
      done;
      let seen = ref 0 in
      while !seen < n do
        match Link.recv sub_link with
        | Some f when Bytes.length f > 0 && Bytes.get f 0 = 'M' -> incr seen
        | Some _ -> ()
        | None -> Alcotest.fail "subscriber closed early"
      done;
      Relay.Client.close sc)
    [ ("flights", traced); ("quiet", quiet) ];
  let srv = serve_spans (fun () -> Relay.trace_spans h) in
  Fun.protect ~finally:(fun () -> Http.shutdown srv) @@ fun () ->
  let admin = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close admin) @@ fun () ->
  let stages =
    [ "publish_admit"; "store_append"; "fanout_enqueue"; "flush"; "deliver" ]
  in
  (* the export first, then STATS, which the shard's loop answers after
     every span the export held: a stage's last spans may land after
     its subscriber read the frames, so read until the two agree *)
  let read () =
    let body = Http.get ~port:(Http.port srv) ~path:"/trace/spans" () in
    let stats = Relay.Client.stats admin in
    List.map
      (fun stage ->
        ( stage
        , span_count body stage
        , Option.value ~default:0
            (List.assoc_opt
               (Printf.sprintf "hist.stage_us.%s.count" stage)
               stats) ))
      stages
  in
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec settle () =
    let r = read () in
    if
      List.for_all (fun (_, spans, hist) -> spans > 0 && spans = hist) r
      || Unix.gettimeofday () > deadline
    then r
    else begin
      Thread.delay 0.01;
      settle ()
    end
  in
  let counts = settle () in
  check bool "the ring has not wrapped" true
    (List.length (Relay.trace_spans h) < buffer);
  List.iter
    (fun (stage, spans, hist) ->
      check bool (stage ^ " spans exported") true (spans > 0);
      check int (stage ^ ": histogram count = span count") spans hist)
    counts;
  check bool "only the traced stream's frames were admitted as spans" true
    (List.for_all
       (fun sp -> String.equal sp.Trace.sp_stream "flights")
       (Relay.trace_spans h));
  List.iter (fun (pub, _, _) -> Relay.Client.close pub) [ traced; quiet ]

(* an untraced relay mints nothing and serves no trace metadata *)
let test_tracing_off_is_inert () =
  let h = Relay.start (Relay.listen ()) in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let ctx = Trace.make ~sampled:true () in
  let pub, sender, fmt =
    make_publisher ~trace:ctx ~port ~stream:"flights" ()
  in
  for seq = 0 to 4 do
    publish sender fmt seq
  done;
  poll ~what:"frames relayed" (fun () ->
      relay_stat ~port "events_relayed" >= 5);
  check int "no spans without trace settings" 0
    (List.length (Relay.trace_spans h));
  let c = Relay.Client.connect ~port () in
  let meta, _schema = Relay.Client.describe c ~stream:"flights" in
  check bool "no trace= metadata either" true
    (List.assoc_opt "trace" meta = None);
  Relay.Client.close c;
  Relay.Client.close pub

(* relay-side head sampling: a publisher without a context gets one
   minted at the configured rate *)
let test_relay_head_sampling () =
  let h =
    Relay.start (Relay.listen ~trace:(Trace.settings ~sample:1.0 ()) ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" () in
  for seq = 0 to 4 do
    publish sender fmt seq
  done;
  poll ~what:"relay-minted spans" (fun () ->
      Relay.trace_spans h <> []);
  let spans = Relay.trace_spans h in
  let ids =
    List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_trace) spans)
  in
  check int "one minted context for the session" 1 (List.length ids);
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Session API: context injection and surfacing                         *)
(* ------------------------------------------------------------------ *)

let test_session_trace_handoff () =
  let h =
    Relay.start (Relay.listen ~trace:(Trace.settings ~sample:0.0 ()) ())
  in
  let port = Relay.port h in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let ctx = Trace.make ~sampled:true () in
  let cfg = Session.config ~port () in
  let p =
    Session.publisher ~trace:ctx cfg ~stream:"flights"
      ~schema:Fx.schema_a Abi.x86_64
  in
  Fun.protect ~finally:(fun () -> Session.close_publisher p)
  @@ fun () ->
  let s = Session.subscribe ~want_trace:true cfg ~stream:"flights"
      Abi.arm_32
  in
  Fun.protect ~finally:(fun () -> Session.close_subscriber s)
  @@ fun () ->
  (match Session.subscriber_trace s with
  | Some served ->
    check bool "subscriber sees the publisher's context" true
      (Int64.equal served.Trace.trace_id ctx.Trace.trace_id);
    check bool "sampled flag travels" true served.Trace.sampled
  | None -> Alcotest.fail "want_trace surfaced nothing");
  let fmt = Option.get (Session.publisher_format p "ASDOffEvent") in
  Session.publish_value p fmt (event 0);
  match Session.recv_subscriber s with
  | Some (_, v) ->
    check bool "event delivered on the traced stream" true
      (match Value.field_exn v "fltNum" with
      | Value.Int 0L -> true
      | _ -> false)
  | None -> Alcotest.fail "subscriber closed early"

(* ------------------------------------------------------------------ *)
(* Two relays: one trace crosses a mirror chain, served over HTTP       *)
(* ------------------------------------------------------------------ *)

let test_mirror_chain_trace () =
  with_root @@ fun root_a ->
  with_root @@ fun root_b ->
  let tset = Trace.settings ~sample:0.0 () in
  let ha =
    Relay.start (Relay.listen ~trace:tset ~store:(store_cfg root_a) ())
  in
  let port_a = Relay.port ha in
  Fun.protect ~finally:(fun () -> Relay.stop ha) @@ fun () ->
  let hb =
    Relay.start (Relay.listen ~trace:tset ~store:(store_cfg root_b) ())
  in
  let port_b = Relay.port hb in
  Fun.protect ~finally:(fun () -> Relay.stop hb) @@ fun () ->
  let ctx = Trace.make ~sampled:true () in
  let pub, sender, fmt =
    make_publisher ~trace:ctx ~port:port_a ~stream:"flights" ()
  in
  for seq = 0 to 4 do
    publish sender fmt seq
  done;
  poll ~what:"source stored the burst" (fun () ->
      relay_stat ~port:port_a "store.flights.tail" >= 5);
  let m =
    Mirror.start hb
      (Mirror.config ~rescan_s:0.05 ~io_timeout_s:0.25 ~max_attempts:3
         ~base_delay_s:0.02 ~max_delay_s:0.1 ~source_host:"127.0.0.1"
         ~source_port:port_a ())
  in
  Fun.protect ~finally:(fun () -> Mirror.stop m) @@ fun () ->
  poll ~what:"replica caught up" (fun () ->
      relay_stat ~port:port_b "store.flights.tail" >= 5);
  (* the replicated context is served by the replica's DESCRIBE *)
  let cb = Relay.Client.connect ~port:port_b () in
  let meta_b, _schema = Relay.Client.describe cb ~stream:"flights" in
  (match Option.bind (List.assoc_opt "trace" meta_b) Trace.of_string with
  | Some served ->
    check bool "replica serves the origin's context" true
      (Int64.equal served.Trace.trace_id ctx.Trace.trace_id)
  | None -> Alcotest.fail "replica describe lost the trace context");
  (* live consumer on the replica, then a second traced burst from the
     source: those frames cross relay A, the mirror link, relay B and
     the consumer socket under one trace id *)
  let _schema, sub_link = Relay.Client.subscribe cb ~stream:"flights" in
  for seq = 5 to 9 do
    publish sender fmt seq
  done;
  let seen = ref 0 in
  while !seen < 5 do
    match Link.recv sub_link with
    | Some f when Bytes.length f > 0 && Bytes.get f 0 = 'M' -> incr seen
    | Some _ -> ()
    | None -> Alcotest.fail "replica subscriber closed early"
  done;
  let all_spans () = Relay.trace_spans ha @ Relay.trace_spans hb in
  let want =
    [ "publish_admit"; "store_append"; "fanout_enqueue"; "flush"; "deliver" ]
  in
  poll ~what:"all stages across the chain" (fun () ->
      has_stages ~trace_id:ctx.Trace.trace_id ~want (all_spans ())
      && has_stages ~trace_id:ctx.Trace.trace_id
           ~want:[ "publish_admit"; "store_append" ]
           (Relay.trace_spans hb));
  (* export the merged trace the way relayd does: /trace/spans mounted
     beside /metrics *)
  let srv = serve_spans all_spans in
  Fun.protect ~finally:(fun () -> Http.shutdown srv) @@ fun () ->
  let body = Http.get ~port:(Http.port srv) ~path:"/trace/spans" () in
  check bool "spans export has the trace id" true
    (contains body (Trace.id_to_string ctx.Trace.trace_id));
  List.iter
    (fun stage ->
      check bool (stage ^ " exported") true
        (contains body (Printf.sprintf "\"name\":\"%s\"" stage)))
    want;
  (* /metrics still answers beside the trace routes *)
  let metrics = Http.get ~port:(Http.port srv) ~path:"/metrics" () in
  check bool "metrics endpoint intact" true (String.length metrics >= 0);
  Relay.Client.close cb;
  Relay.Client.close pub

let () =
  Random.self_init ();
  Alcotest.run "trace"
    [ ( "codec"
      , [ Alcotest.test_case "context round-trip and rejects" `Quick
            test_ctx_codec ] )
    ; ( "sampler"
      , [ Alcotest.test_case "head-sampling rates" `Quick test_sampler_rate ]
      )
    ; ( "ring"
      , [ Alcotest.test_case "capacity, wrap, clear" `Quick
            test_ring_capacity
        ; Alcotest.test_case "slow-span gate" `Quick test_slow_gate ] )
    ; ( "export"
      , [ Alcotest.test_case "chrome json" `Quick test_export_shapes ] )
    ; ( "relay"
      , [ Alcotest.test_case "one session covers the frame path" `Quick
            test_single_relay_stages
        ; Alcotest.test_case "tracing off is inert" `Quick
            test_tracing_off_is_inert
        ; Alcotest.test_case "relay-side head sampling" `Quick
            test_relay_head_sampling
        ; Alcotest.test_case "session handoff via describe" `Quick
            test_session_trace_handoff
        ; Alcotest.test_case "stage histograms count the exported spans"
            `Quick test_stage_histograms_match_spans ] )
    ; ( "mirror"
      , [ Alcotest.test_case "one trace crosses a mirror chain" `Quick
            test_mirror_chain_trace ] ) ]
