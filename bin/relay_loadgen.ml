(** relay_loadgen: drive a relay with 1 publisher and N real TCP
    subscribers, verify delivery (counts, ordering) and report
    throughput — the traffic-serving smoke test for {!Omf_relay}.

    Two modes: [--serve] self-hosts a relay on an ephemeral port (one
    command, full round trip), or [--port P] targets a running relayd.
    Events are the paper's structure-A ASD events with the sequence
    number in [fltNum] and optional string padding to scale payloads.

    [--rate R] switches the publisher from closed-loop (send as fast
    as the relay accepts) to open-loop: events are launched on the
    absolute schedule [t0 + seq/R] regardless of how fast the relay
    drains them — the overload-drill shape, where offered load exceeds
    capacity and the relay must shed ([busy] replies, dropped frames)
    rather than collapse. Loss is then expected and reported, not an
    error; delivery gaps are nudged closed with sentinel events so
    lagging subscribers still terminate.

    Each subscriber is a {!Omf_relay.Relay_session} subscriber session,
    the one Pbio consumer. In an open-loop run it reconnects and
    resubscribes after an outage (an eviction under [--policy
    evict-slow], say), and the run reports how often
    ([subscriber_reconnects]). In a closed-loop run it has no reconnect
    budget: the end of its link ends it, and it counts as closed early.

    Exit status: non-zero on any reordered event; a closed-loop run
    also fails when an event is lost or a subscriber closes early. *)

open Omf_machine
open Omf_pbio.Pbio
module Relay = Omf_relay.Relay
module Session = Omf_relay.Relay_session
module Fx = Omf_fixtures.Paper_structs
module Catalog = Omf_xml2wire.Catalog
module X2W = Omf_xml2wire.Xml2wire

(* intervals and schedules read the monotonic clock, in seconds *)
let now_s () = float_of_int (Omf_util.Clock.now_us ()) /. 1e6

let event ~seq ~pad =
  let v = Value.set_field Fx.value_a "fltNum" (Value.Int (Int64.of_int seq)) in
  if pad > 0 then Value.set_field v "equip" (Value.String (String.make pad 'x'))
  else v

type sub_report = {
  mutable received : int;
  mutable out_of_order : int;
  mutable closed_early : bool;
  mutable reconnects : int;  (** the session's resubscribes after an outage *)
  mutable finished : bool;  (** thread returned (joinable without blocking) *)
  mutable raw_bytes : int;  (** through the compression wrapper, if any *)
  mutable wire_bytes : int;
}

let subscriber_thread ~host ~port ?auth ~compress ?max_attempts ~stream
    ~last_seq (abi : Abi.t) (report : sub_report) () =
  let sub =
    Session.subscribe
      (Session.config ~host ~port ?auth ~compress ?max_attempts ())
      ~stream abi
  in
  let rec go prev =
    match Session.recv_subscriber sub with
    | None -> report.closed_early <- true
    | Some (_, v) ->
      let seq = match Value.field_exn v "fltNum" with
        | Value.Int i -> Int64.to_int i
        | _ -> -1
      in
      report.received <- report.received + 1;
      if seq <= prev then report.out_of_order <- report.out_of_order + 1;
      if seq < last_seq then go seq
  in
  (try go (-1) with _ -> report.closed_early <- true);
  (match Session.subscriber_comp_totals sub with
  | Some (raw, wire) ->
    report.raw_bytes <- raw;
    report.wire_bytes <- wire
  | None -> ());
  report.reconnects <- Session.subscriber_reconnects sub;
  Session.close_subscriber sub;
  report.finished <- true

(** One measured publish/fan-out cycle at payload padding [pad]:
    spawn the subscriber fleet, wait for the relay to see it, publish
    [events] events, join the fleet. Returns
    [(dt, delivered, ooo, early, reconnects, behind, raw, wire)]. *)
let measure ~host ~port ?auth ~compress ~stream ~admin ~sender ~fmt
    ~subscribers ~events ~rate ~pad () =
  let reports =
    Array.init subscribers (fun _ ->
        { received = 0; out_of_order = 0; closed_early = false
        ; reconnects = 0; finished = false; raw_bytes = 0; wire_bytes = 0 })
  in
  (* closed loop: no reconnect budget, so a subscriber whose link ends
     fails the run at once instead of resubscribing live past the
     events it missed and waiting forever for the last one *)
  let max_attempts = if rate > 0.0 then None else Some 0 in
  let threads =
    Array.mapi
      (fun i report ->
        let abi = List.nth Abi.all (i mod List.length Abi.all) in
        Thread.create
          (subscriber_thread ~host ~port ?auth ~compress ?max_attempts ~stream
             ~last_seq:(events - 1) abi report)
          ())
      reports
  in
  (* wait until the relay sees all subscriptions before publishing *)
  let rec wait_subs () =
    let subs =
      List.assoc_opt
        (Printf.sprintf "stream.%s.subscribers" stream)
        (Relay.Client.stats admin)
    in
    if Option.value ~default:0 subs < subscribers then begin
      Thread.delay 0.01;
      wait_subs ()
    end
  in
  wait_subs ();
  let behind = ref 0 in
  let t0 = now_s () in
  for seq = 0 to events - 1 do
    if rate > 0.0 then begin
      (* open-loop: launch on the absolute schedule, never waiting for
         the relay — if we're behind, send immediately and count it *)
      let target = t0 +. (float_of_int seq /. rate) in
      let now = now_s () in
      if now < target then Thread.delay (target -. now)
      else if now -. target > 0.001 then incr behind
    end;
    Omf_transport.Endpoint.Sender.send_value sender fmt (event ~seq ~pad)
  done;
  let publish_dt = now_s () -. t0 in
  if rate > 0.0 then begin
    (* the storm may have shed the tail a subscriber was waiting for:
       nudge stragglers with sentinel (last-seq) events at a gentle
       pace until every thread terminates, bounded by a deadline *)
    let deadline = now_s () +. 10.0 in
    let all_done () = Array.for_all (fun r -> r.finished) reports in
    while (not (all_done ())) && now_s () < deadline do
      (try
         Omf_transport.Endpoint.Sender.send_value sender fmt
           (event ~seq:(events - 1) ~pad)
       with _ -> ());
      Thread.delay 0.05
    done;
    Array.iteri
      (fun i th -> if reports.(i).finished then Thread.join th)
      threads
  end
  else Array.iter Thread.join threads;
  let dt = if rate > 0.0 then publish_dt else now_s () -. t0 in
  let delivered = Array.fold_left (fun a r -> a + r.received) 0 reports in
  let ooo = Array.fold_left (fun a r -> a + r.out_of_order) 0 reports in
  let early =
    Array.fold_left (fun a r -> a + if r.closed_early then 1 else 0) 0 reports
  in
  let reconnects = Array.fold_left (fun a r -> a + r.reconnects) 0 reports in
  let raw = Array.fold_left (fun a r -> a + r.raw_bytes) 0 reports in
  let wire = Array.fold_left (fun a r -> a + r.wire_bytes) 0 reports in
  (dt, delivered, ooo, early, reconnects, !behind, raw, wire)

(** Per-stage latency percentiles from the relay's merged
    [hist.stage_us.*] histogram counters: each percentile is the
    smallest bucket bound whose cumulative count reaches the rank — an
    upper bound, good to one bucket of resolution. *)
let print_stage_table (stats : (string * int) list) =
  let prefix = "hist.stage_us." in
  let strip_prefix k p =
    if String.length k > String.length p && String.sub k 0 (String.length p) = p
    then Some (String.sub k (String.length p) (String.length k - String.length p))
    else None
  in
  let stages =
    List.filter_map
      (fun (k, _) ->
        match strip_prefix k prefix with
        | Some rest when Filename.check_suffix rest ".count" ->
          Some (Filename.chop_suffix rest ".count")
        | _ -> None)
      stats
    |> List.sort_uniq compare
  in
  if stages = [] then
    print_endline
      "  no stage histograms — is the relay tracing? (relayd --trace-sample)"
  else begin
    Printf.printf "  %-18s %9s %9s %9s %9s\n" "stage" "count" "p50 us"
      "p95 us" "p99 us";
    List.iter
      (fun stage ->
        let count =
          Option.value ~default:0
            (List.assoc_opt (prefix ^ stage ^ ".count") stats)
        in
        if count > 0 then begin
          let bprefix = prefix ^ stage ^ ".le_" in
          let buckets =
            List.filter_map
              (fun (k, cum) ->
                match strip_prefix k bprefix with
                | Some "inf" -> Some (max_int, cum)
                | Some b -> Some (int_of_string b, cum)
                | None -> None)
              stats
            |> List.sort compare
          in
          let pct p =
            let rank = max 1 (int_of_float (ceil (p *. float_of_int count))) in
            match List.find_opt (fun (_, cum) -> cum >= rank) buckets with
            | Some (bound, _) when bound <> max_int -> string_of_int bound
            | _ -> ">1000000"
          in
          Printf.printf "  %-18s %9d %9s %9s %9s\n" stage count (pct 0.50)
            (pct 0.95) (pct 0.99)
        end)
      stages
  end

let run serve host port policy max_queue auth compress subscribers events pad
    sizes rate trace push stream =
  let handle =
    if serve then
      Some
        (Relay.start
           (Relay.listen ~host ~policy ~max_queue
              ?auth_keys:(Option.map (fun kp -> [ kp ]) auth)
              ?trace:
                (if trace then Some (Relay.Trace.settings ~sample:0.0 ())
                 else None)
              ()))
    else None
  in
  let port =
    match handle with Some h -> Relay.port h | None -> port
  in
  (* advertise, then bring up the publisher endpoint *)
  let admin = Relay.Client.connect ~host ~port ?auth ~compress () in
  if compress && not (Relay.Client.compressed admin) then
    Printf.printf
      "relay_loadgen: relay did not grant comp=lz; running uncompressed\n%!";
  Relay.Client.advertise admin ~stream ~schema:Fx.schema_a;
  let pub_link =
    Relay.Client.publish
      ?trace:(if trace then Some (Relay.Trace.make ~sampled:true ()) else None)
      admin ~stream
  in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let sender =
    Omf_transport.Endpoint.Sender.create pub_link (Memory.create Abi.x86_64)
  in
  let measure = measure ~host ~port ?auth ~compress ~stream ~admin ~sender
      ~fmt ~subscribers ~events ~rate
  in
  let total_ooo = ref 0 and total_lost = ref 0 and total_early = ref 0 in
  let note_delivery ~delivered ~ooo ~early =
    total_ooo := !total_ooo + ooo;
    total_lost := !total_lost + max 0 ((events * subscribers) - delivered);
    total_early := !total_early + early
  in
  let comp_raw = ref 0 and comp_wire = ref 0 in
  let note_comp raw wire =
    comp_raw := !comp_raw + raw;
    comp_wire := !comp_wire + wire
  in
  (match sizes with
  | [] ->
    let dt, delivered, ooo, early, reconnects, behind, raw, wire =
      measure ~pad ()
    in
    note_delivery ~delivered ~ooo ~early;
    note_comp raw wire;
    Printf.printf
      "relay_loadgen: %d events -> %d subscribers in %.3f s (policy %s%s)\n"
      events subscribers dt
      (Relay.policy_to_string policy)
      (if rate > 0.0 then Printf.sprintf ", open-loop %.0f/s" rate else "");
    Printf.printf "  published        %9d events/s\n"
      (int_of_float (float_of_int events /. dt));
    if rate > 0.0 then
      Printf.printf "  behind schedule  %9d launches\n" behind;
    Printf.printf "  delivered        %9d frames (%d deliveries/s)\n" delivered
      (int_of_float (float_of_int delivered /. dt));
    Printf.printf "  lost             %9d (expected %d%s)\n"
      (max 0 ((events * subscribers) - delivered))
      (events * subscribers)
      (if rate > 0.0 then "; loss is expected under open-loop overload"
       else "");
    Printf.printf "  out of order     %9d\n" ooo;
    Printf.printf "  closed early     %9d subscriber(s)\n" early;
    Printf.printf "  reconnects       %9d (subscriber_reconnects)\n" reconnects
  | sizes ->
    (* payload sweep: one full publish/fan-out cycle per size, sharing
       the relay and publisher link, with per-size throughput *)
    Printf.printf
      "relay_loadgen: sweep of %d events -> %d subscribers per size \
       (policy %s%s)\n"
      events subscribers
      (Relay.policy_to_string policy)
      (if rate > 0.0 then Printf.sprintf ", open-loop %.0f/s" rate else "");
    Printf.printf "  %10s %12s %14s %9s %6s %6s %10s\n" "pad bytes"
      "events/s" "deliveries/s" "lost" "ooo" "early" "reconnects";
    List.iter
      (fun size ->
        let dt, delivered, ooo, early, reconnects, _behind, raw, wire =
          measure ~pad:size ()
        in
        note_delivery ~delivered ~ooo ~early;
        note_comp raw wire;
        Printf.printf "  %10d %12d %14d %9d %6d %6d %10d\n" size
          (int_of_float (float_of_int events /. dt))
          (int_of_float (float_of_int delivered /. dt))
          (max 0 ((events * subscribers) - delivered))
          ooo early reconnects)
      sizes);
  let stats = Relay.Client.stats admin in
  List.iter
    (fun k ->
      match List.assoc_opt k stats with
      | Some v -> Printf.printf "  relay %-16s %9d\n" k v
      | None -> ())
    [ "bytes_in"; "bytes_out"; "frames_dropped"; "subscribers_evicted"
    ; "evictions_eager"; "publish_busy"; "subscribe_busy"
    ; "ingress_throttled"; "governor_degraded"; "governor_overloaded"
    ; "governor_recovered" ];
  if Relay.Client.compressed admin then begin
    (* publisher-side totals from the admin connection plus the
       subscriber fleet's, gathered before each subscriber session closed *)
    (match Relay.Client.comp_totals admin with
    | Some (raw, wire) -> note_comp raw wire
    | None -> ());
    if !comp_wire > 0 then
      Printf.printf
        "  compression      %9d raw -> %d wire bytes (ratio %.2fx)\n"
        !comp_raw !comp_wire
        (float_of_int !comp_raw /. float_of_int !comp_wire)
  end;
  if trace then begin
    Printf.printf "  stage latency breakdown (microseconds):\n";
    print_stage_table stats
  end;
  (match push with
  | None -> ()
  | Some url -> (
    match Omf_httpd.Http.push ~url [ ("relay", stats) ] with
    | Ok () -> Printf.printf "  pushed metrics to %s\n" url
    | Error m -> Printf.printf "  metrics push to %s failed: %s\n" url m));
  Relay.Client.close admin;
  (match handle with Some h -> Relay.stop h | None -> ());
  if !total_ooo > 0 then `Error (false, "events reordered")
  else if rate <= 0.0 && !total_lost > 0 then
    `Error (false, "events lost in a closed-loop run")
  else if rate <= 0.0 && !total_early > 0 then
    `Error (false, "a subscriber closed early in a closed-loop run")
  else `Ok ()

let parse_policy s =
  match Relay.policy_of_string s with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown policy %s" s)

let parse_keypair s =
  match String.index_opt s '=' with
  | Some i when i > 0 ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> Error (Printf.sprintf "want KEYID=SECRET, got %s" s)

let parse_sizes s =
  match List.map int_of_string (String.split_on_char ',' s) with
  | sizes -> Ok sizes
  | exception Failure _ -> Error (Printf.sprintf "want N[,N...], got %s" s)

let () =
  let conv = Omf_util.Cli.conv in
  let serve = ref false
  and host = ref "127.0.0.1"
  and port = ref 9117
  and policy = ref Relay.Block
  and max_queue = ref 256
  and auth = ref None
  and compress = ref false
  and subscribers = ref 8
  and events = ref 10_000
  and pad = ref 0
  and sizes = ref []
  and rate = ref 0.0
  and trace = ref false
  and push = ref None
  and stream = ref "loadgen" in
  let specs =
    [ ( "--serve"
      , Arg.Set serve
      , " Self-host a relay on an ephemeral port instead of targeting a \
         running relayd." )
    ; ("--host", Arg.Set_string host, "HOST Relay host (default 127.0.0.1).")
    ; ( "--port"
      , Arg.Set_int port
      , "PORT Relay port (ignored with --serve; default 9117)." )
    ; ("-p", Arg.Set_int port, "PORT Same as --port.")
    ; ( "--policy"
      , conv parse_policy (( := ) policy)
      , "POLICY Backpressure policy for the self-hosted relay (default \
         block)." )
    ; ( "--max-queue"
      , Arg.Set_int max_queue
      , "FRAMES Self-hosted relay queue bound (default 256)." )
    ; ( "--auth"
      , conv parse_keypair (fun k -> auth := Some k)
      , "KEYID=SECRET Negotiate HMAC-authenticated framing on every \
         connection (and accept that key on the self-hosted relay with \
         --serve)." )
    ; ( "--compress"
      , Arg.Set compress
      , " Offer comp=lz wire compression on every connection \
         (doc/COMPRESS.md) and report the achieved raw/wire ratio. A relay \
         that does not speak compression negotiates down to plain frames." )
    ; ( "--subscribers"
      , Arg.Set_int subscribers
      , "N Concurrent TCP subscribers (default 8)." )
    ; ("-n", Arg.Set_int subscribers, "N Same as --subscribers.")
    ; ("--events", Arg.Set_int events, "K Events to publish (default 10000).")
    ; ("-k", Arg.Set_int events, "K Same as --events.")
    ; ( "--rate"
      , Arg.Set_float rate
      , "FRAMES/S Open-loop publish rate: launch events on the absolute \
         schedule t0 + seq/RATE instead of as fast as the relay accepts \
         — drive offered load past capacity to exercise overload \
         shedding (doc/OVERLOAD.md). 0 (the default) = closed-loop." )
    ; ( "--pad"
      , Arg.Set_int pad
      , "BYTES Extra string payload per event (0 = the bare 72-byte event)." )
    ; ( "--size"
      , conv parse_sizes (( := ) sizes)
      , "N[,N...] Payload-size sweep: run the full publish/fan-out cycle \
         once per padding size (bytes) and report per-size throughput. \
         Overrides --pad." )
    ; ( "--trace"
      , Arg.Set trace
      , " Publish with an end-to-end trace context and print the relay's \
         per-stage latency breakdown afterwards (doc/TRACE.md). With \
         --serve tracing is enabled on the self-hosted relay; against a \
         running relayd start it with --trace-sample." )
    ; ( "--push"
      , Arg.String (fun url -> push := Some url)
      , "URL POST the relay's final counters to this push-gateway URL as \
         Prometheus text on exit (the path defaults to /metrics/job/omf)." )
    ; ("--stream", Arg.Set_string stream, "NAME Stream name (default loadgen).") ]
  in
  let name = "relay_loadgen" in
  ignore
    (Omf_util.Cli.parse ~name
       ~doc:
         "relay_loadgen: load generator for the event relay (1 publisher, N \
          TCP subscribers)"
       specs Sys.argv);
  Omf_util.Cli.exit_with ~name
    (run !serve !host !port !policy !max_queue !auth !compress !subscribers
       !events !pad !sizes !rate !trace !push !stream)
