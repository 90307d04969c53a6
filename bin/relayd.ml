(** relayd: the networked event-relay daemon — the event backbone
    ({!Omf_relay.Relay}, the one pub/sub broker) served over real TCP
    with bounded per-subscriber queues and a configurable backpressure
    policy.

    [relayd --port 9117 --policy block] runs until SIGINT/SIGTERM, then
    drains subscriber queues gracefully and prints final stats.
    [--shards N] spreads connections over N event loops (the first on
    the main thread, which also accepts; one domain each for the rest;
    streams pinned to shards); [--metrics-port P] serves
    Prometheus counters on [GET /metrics].

    [--mirror HOST:PORT] runs this relayd as a follower of another
    relayd (doc/MIRROR.md): every source stream (optionally narrowed
    with [,GLOB] suffixes) is replicated into the local store and
    re-advertised read-only; [--mirror-promote-on-loss] promotes
    replicated streams to local ownership once the source is declared
    lost, so publishers and consumers can fail over. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

let port_arg =
  Arg.(
    value & opt int 9117
    & info [ "port"; "p" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")

let policy_conv =
  let parse s =
    match Omf_relay.Relay.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown policy %s (want block | drop-oldest | \
              evict-slow-consumer)"
             s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Omf_relay.Relay.policy_to_string p))

let policy_arg =
  Arg.(
    value
    & opt policy_conv Omf_relay.Relay.Block
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Backpressure policy for slow subscribers: $(b,block) (stop \
           reading publishers, loss-free), $(b,drop-oldest) (shed oldest \
           queued data frame), or $(b,evict-slow-consumer) (disconnect \
           the laggard).")

let max_queue_arg =
  Arg.(
    value & opt int 256
    & info [ "max-queue" ] ~docv:"FRAMES"
        ~doc:"Queued data frames per subscriber before the policy applies.")

let evict_grace_arg =
  Arg.(
    value & opt float 1.0
    & info [ "evict-grace" ] ~docv:"SECONDS"
        ~doc:
          "How long a subscriber may stay over the queue watermark before \
           $(b,evict-slow-consumer) disconnects it.")

let drain_arg =
  Arg.(
    value & opt float 2.0
    & info [ "drain" ] ~docv:"SECONDS"
        ~doc:"Graceful-shutdown flush deadline.")

let keypair_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i when i > 0 ->
      Ok
        ( String.sub s 0 i
        , String.sub s (i + 1) (String.length s - i - 1) )
    | _ -> Error (`Msg (Printf.sprintf "want KEYID=SECRET, got %s" s))
  in
  Arg.conv (parse, fun ppf (id, _) -> Fmt.pf ppf "%s=..." id)

let auth_keys_arg =
  Arg.(
    value
    & opt_all keypair_conv []
    & info [ "auth-key" ] ~docv:"KEYID=SECRET"
        ~doc:
          "Accept HMAC-authenticated framing under this key (repeatable). \
           Clients opting in at HELLO get every subsequent frame sealed \
           and verified in both directions; with no $(b,--auth-key) the \
           mode is refused.")

let mac_reject_limit_arg =
  Arg.(
    value & opt int 3
    & info [ "mac-reject-limit" ] ~docv:"N"
        ~doc:
          "Disconnect an authenticated client after $(docv) frames fail \
           verification.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Run $(docv) event loops: the first on the main thread, which \
           also accepts, the others on a domain each. Streams are pinned \
           to shards, preserving per-stream delivery order.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Also serve relay counters in Prometheus text format on \
           $(b,GET /metrics) at this port.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persist every stream to a segmented append-only log under \
           $(docv) (doc/STORE.md): publishers can request durability \
           acks, subscribers can replay stored offsets, and a restarted \
           relayd recovers all streams from disk.")

let fsync_conv =
  let parse s =
    match Omf_relay.Relay.Store.fsync_policy_of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf p ->
      Fmt.string ppf (Omf_relay.Relay.Store.fsync_policy_to_string p))

let store_fsync_arg =
  Arg.(
    value
    & opt fsync_conv (Omf_relay.Relay.Store.Interval 0.1)
    & info [ "store-fsync" ] ~docv:"POLICY"
        ~doc:
          "Durability policy: $(b,never) (page cache only), $(b,every=N) \
           (fsync once per N appends), or $(b,interval=SECS) (fsync on a \
           timer; the default, interval=0.1).")

let store_segment_mb_arg =
  Arg.(
    value & opt int 64
    & info [ "store-segment-mb" ] ~docv:"MB"
        ~doc:"Roll to a new segment file past $(docv) MiB.")

let store_retain_segments_arg =
  Arg.(
    value & opt int 0
    & info [ "store-retain-segments" ] ~docv:"N"
        ~doc:"Keep at most $(docv) segment files per stream (0 = all).")

let store_retain_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "store-retain-mb" ] ~docv:"MB"
        ~doc:"Cap each stream's segments at $(docv) MiB (0 = unlimited).")

let store_retain_age_arg =
  Arg.(
    value & opt float 0.0
    & info [ "store-retain-age-s" ] ~docv:"SECONDS"
        ~doc:"Drop sealed segments older than $(docv) seconds (0 = never).")

let store_compress_arg =
  Arg.(
    value & flag
    & info [ "store-compress" ]
        ~doc:
          "Rewrite each segment as one LZ block when it is sealed \
           (doc/COMPRESS.md): the tail stays plain so appends and \
           torn-tail recovery are untouched, replay inflates \
           transparently, and the retention budgets count the \
           compressed on-disk size.")

let relay_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "relay-id" ] ~docv:"ID"
        ~doc:
          "Replication identity for origin-tagged streams \
           (PROTOCOLS.md §15). Defaults to the id persisted in \
           $(b,--store)/relay-id, or a fresh random id without a store.")

let mirror_conv =
  let parse s =
    match String.split_on_char ',' s with
    | hostport :: globs -> (
      match String.rindex_opt hostport ':' with
      | Some i when i > 0 -> (
        let host = String.sub hostport 0 i in
        let p = String.sub hostport (i + 1) (String.length hostport - i - 1) in
        match int_of_string_opt p with
        | Some port when port > 0 -> Ok (host, port, globs)
        | _ -> Error (`Msg (Printf.sprintf "bad mirror port %s" p)))
      | _ -> Error (`Msg (Printf.sprintf "want HOST:PORT[,GLOB...], got %s" s)))
    | [] -> Error (`Msg "empty --mirror")
  in
  Arg.conv
    ( parse
    , fun ppf (h, p, globs) ->
        Fmt.pf ppf "%s:%d%s" h p
          (String.concat "" (List.map (fun g -> "," ^ g) globs)) )

let mirror_arg =
  Arg.(
    value
    & opt (some mirror_conv) None
    & info [ "mirror" ] ~docv:"HOST:PORT[,GLOB...]"
        ~doc:
          "Follow the relayd at $(docv): replicate its streams (all, or \
           only those matching the comma-separated globs) into the local \
           store and re-advertise them read-only with their origin tags \
           (doc/MIRROR.md).")

let mirror_promote_arg =
  Arg.(
    value & flag
    & info [ "mirror-promote-on-loss" ]
        ~doc:
          "When a mirrored source stays unreachable past the reconnect \
           budget, promote its streams to local ownership (epoch bump) so \
           clients can fail over to this relay for writes too.")

let mirror_rescan_arg =
  Arg.(
    value & opt float 1.0
    & info [ "mirror-rescan" ] ~docv:"SECONDS"
        ~doc:
          "How often the mirror manager re-LISTs the source for new \
           streams and refreshes replication-lag gauges.")

let mirror_compress_arg =
  Arg.(
    value & flag
    & info [ "mirror-compress" ]
        ~doc:
          "Offer $(b,comp=lz) wire compression on every replication \
           link to the source (doc/COMPRESS.md, PROTOCOLS.md §18). A \
           source that does not speak compression negotiates down to \
           plain frames, so the flag is safe against old relays.")

let governor_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "governor-budget" ] ~docv:"BYTES"
        ~doc:
          "Per-shard outbound byte budget for the overload governor \
           (doc/OVERLOAD.md): crossing 70%/90% of $(docv) degrades and \
           then overloads the shard — stored replay is throttled, slow \
           consumers evicted eagerly, and PUBLISH / replay SUBSCRIBE \
           refused with a retryable $(b,busy) reply until the backlog \
           drains. 0 (the default) disables the governor.")

let governor_retry_ms_arg =
  Arg.(
    value & opt int 250
    & info [ "governor-retry-ms" ] ~docv:"MS"
        ~doc:"Retry hint carried in $(b,busy) replies while overloaded.")

let trace_sample_arg =
  Arg.(
    value & opt float 0.0
    & info [ "trace-sample" ] ~docv:"RATE"
        ~doc:
          "Head-sample this fraction of published frames for end-to-end \
           stage tracing (doc/TRACE.md): 0.01 records one frame in a \
           hundred through admit, store, fanout, flush and delivery. 0 \
           (the default) disables tracing unless $(b,--trace-slow-us) is \
           set.")

let trace_buffer_arg =
  Arg.(
    value & opt int 4096
    & info [ "trace-buffer" ] ~docv:"SPANS"
        ~doc:
          "Per-shard span ring-buffer capacity; the oldest spans are \
           overwritten once full.")

let trace_slow_us_arg =
  Arg.(
    value & opt int 0
    & info [ "trace-slow-us" ] ~docv:"MICROS"
        ~doc:
          "Always record stage spans at least this slow, even when the \
           frame lost the sampling coin toss. 0 = off.")

let ingress_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "ingress-rate" ] ~docv:"FRAMES/S"
        ~doc:
          "Per-connection publisher rate limit: a publisher sending data \
           frames faster than $(docv) has its reads paused until its \
           token bucket refills (TCP pushes back). 0 = unlimited.")

let ingress_burst_arg =
  Arg.(
    value & opt float 64.0
    & info [ "ingress-burst" ] ~docv:"FRAMES"
        ~doc:"Burst allowance for $(b,--ingress-rate).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")

let run port host policy max_queue evict_grace auth_keys mac_reject_limit
    drain shards metrics_port store_dir store_fsync store_segment_mb
    store_retain_segments store_retain_mb store_retain_age store_compress
    relay_id mirror mirror_promote mirror_rescan mirror_compress
    governor_budget governor_retry_ms trace_sample trace_buffer trace_slow_us
    ingress_rate ingress_burst verbose =
  setup_logs verbose;
  let trace =
    if trace_sample > 0.0 || trace_slow_us > 0 then
      Some
        (Omf_relay.Relay.Trace.settings ~sample:trace_sample
           ~buffer:trace_buffer ~slow_us:trace_slow_us ())
    else None
  in
  let store =
    Option.map
      (fun root ->
        { (Omf_relay.Relay.Store.default_config ~root) with
          segment_bytes = store_segment_mb * 1024 * 1024
        ; fsync = store_fsync
        ; retain_segments = store_retain_segments
        ; retain_bytes = store_retain_mb * 1024 * 1024
        ; retain_age = store_retain_age
        ; compress = store_compress })
      store_dir
  in
  let governor =
    Omf_relay.Relay.Governor.config ~budget:governor_budget
      ~busy_retry_ms:governor_retry_ms ()
  in
  let ingress =
    if ingress_rate > 0.0 then Some (ingress_rate, ingress_burst) else None
  in
  if shards < 1 then `Error (false, "--shards must be >= 1")
  else
    match
      Omf_relay.Relay.listen ~host ~port ~shards ~policy ~max_queue
        ~evict_grace_s:evict_grace ~auth_keys ~mac_reject_limit
        ~drain_s:drain ~governor ?ingress ?trace ?store ?relay_id ()
    with
    | relay ->
      Printf.printf
        "relayd: listening on %s:%d (policy %s, max queue %d, shards %d, \
         auth keys %d, relay id %s%s%s)\n\
         %!"
        host
        (Omf_relay.Relay.port relay)
        (Omf_relay.Relay.policy_to_string policy)
        max_queue shards (List.length auth_keys)
        (Omf_relay.Relay.relay_id relay)
        (match store with
        | None -> ""
        | Some s ->
          Printf.sprintf ", store %s fsync %s" s.root
            (Omf_relay.Relay.Store.fsync_policy_to_string s.fsync))
        (match trace with
        | None ->
          if governor_budget > 0 then
            Printf.sprintf ", governor budget %dB" governor_budget
          else ""
        | Some _ ->
          Printf.sprintf "%s, trace sample %g slow %dus"
            (if governor_budget > 0 then
               Printf.sprintf ", governor budget %dB" governor_budget
             else "")
            trace_sample trace_slow_us);
      let start_mirror (src_host, src_port, globs) =
        let m =
          Omf_mirror.Mirror.start relay
            (Omf_mirror.Mirror.config ~globs ~rescan_s:mirror_rescan
               ~promote_on_loss:mirror_promote ~compress:mirror_compress
               ~source_host:src_host ~source_port:src_port ())
        in
        Printf.printf "relayd: mirroring %s:%d%s%s%s\n%!" src_host src_port
          (match globs with
          | [] -> ""
          | gs -> Printf.sprintf " (streams %s)" (String.concat ", " gs))
          (if mirror_promote then ", promote on loss" else "")
          (if mirror_compress then ", compress" else "");
        m
      in
      let stats_components mir =
        ("relay", Omf_relay.Relay.stats relay)
        :: (match mir with
           | None -> []
           | Some m -> [ ("mirror", Omf_mirror.Mirror.stats m) ])
      in
      let all_spans () = Omf_relay.Relay.trace_spans relay in
      let trace_routes =
        if trace = None then []
        else
          [ ( "/trace/spans"
            , fun () ->
                Omf_httpd.Http.ok ~content_type:"application/json"
                  (Omf_relay.Relay.Trace.chrome_json (all_spans ())) )
          ; ( "/trace/summary"
            , fun () ->
                Omf_httpd.Http.ok ~content_type:"application/json"
                  (Omf_relay.Relay.Trace.summary_json (all_spans ())) )
          ]
      in
      let serve_metrics mir p =
        let srv =
          Omf_httpd.Http.serve ~host ~port:p
            (Omf_httpd.Http.metrics_handler ~staleness:true
               ~routes:trace_routes
               (List.map
                  (fun (name, _) ->
                    (name, fun () -> List.assoc name (stats_components mir)))
                  (stats_components mir)))
        in
        Printf.printf "relayd: metrics on http://%s:%d/metrics\n%!" host
          (Omf_httpd.Http.port srv);
        srv
      in
      (* the signal handlers only wake the control thread, which stops
         the mirror before the relay: a drain closing replication links
         must not look like a source outage *)
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      let stop _ = ignore (Unix.write_substring wake_w "!" 0 1) in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let rec await () =
        match Unix.read wake_r (Bytes.create 1) 0 1 with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      in
      (* The control thread starts the mirror and the metrics server,
         waits for a signal, then stops them and the relay, while the
         main thread runs shard 0's loop until that stop has drained
         it. *)
      let control () =
        let mir = Option.map start_mirror mirror in
        match Option.map (serve_metrics mir) metrics_port with
        | exception Unix.Unix_error (e, _, _) ->
          (* the relay and the mirror are already up: stop them as a
             signal would, then report the port like a busy --port *)
          Option.iter Omf_mirror.Mirror.stop mir;
          Omf_relay.Relay.stop relay;
          `Error
            ( false
            , Printf.sprintf "bind %s:%d: %s" host (Option.get metrics_port)
                (Unix.error_message e) )
        | metrics ->
          await ();
          Option.iter Omf_mirror.Mirror.stop mir;
          Omf_relay.Relay.stop relay;
          Option.iter Omf_httpd.Http.shutdown metrics;
          Printf.printf "relayd: final stats\n";
          List.iter
            (fun (component, stats) ->
              List.iter
                (fun (k, v) ->
                  Printf.printf "  %-32s %d\n" (component ^ "." ^ k) v)
                stats)
            (stats_components mir);
          `Ok ()
      in
      let outcome = ref (Error Exit) in
      let th =
        Thread.create
          (fun () ->
            outcome :=
              match control () with
              | v -> Ok v
              | exception e ->
                (* never leave the main thread's loop running *)
                Omf_relay.Relay.stop relay;
                Error e)
          ()
      in
      Omf_relay.Relay.run relay;
      Thread.join th;
      (match !outcome with Ok v -> v | Error e -> raise e)
    | exception Unix.Unix_error (e, _, _) ->
      `Error
        (false, Printf.sprintf "bind %s:%d: %s" host port (Unix.error_message e))
    | exception Omf_reactor.Reactor.Resolve_error m ->
      `Error (false, Printf.sprintf "bind %s:%d: %s" host port m)
    | exception Omf_relay.Relay.Store.Store_error m ->
      `Error (false, Printf.sprintf "store: %s" m)

let () =
  let doc = "networked event-relay daemon (NDR pub/sub over TCP)" in
  let info = Cmd.info "relayd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ port_arg $ host_arg $ policy_arg $ max_queue_arg
             $ evict_grace_arg $ auth_keys_arg $ mac_reject_limit_arg
             $ drain_arg $ shards_arg $ metrics_port_arg $ store_arg
             $ store_fsync_arg $ store_segment_mb_arg
             $ store_retain_segments_arg $ store_retain_mb_arg
             $ store_retain_age_arg $ store_compress_arg $ relay_id_arg
             $ mirror_arg $ mirror_promote_arg $ mirror_rescan_arg
             $ mirror_compress_arg $ governor_budget_arg
             $ governor_retry_ms_arg $ trace_sample_arg $ trace_buffer_arg
             $ trace_slow_us_arg $ ingress_rate_arg $ ingress_burst_arg
             $ verbose_arg))))
