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

let setup_logs verbose =
  Omf_util.Log.set_level (if verbose then Omf_util.Log.Debug else Info)

let parse_policy s =
  match Omf_relay.Relay.policy_of_string s with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf
         "unknown policy %s (want block | drop-oldest | evict-slow-consumer)" s)

let parse_keypair s =
  match String.index_opt s '=' with
  | Some i when i > 0 ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> Error (Printf.sprintf "want KEYID=SECRET, got %s" s)

let parse_mirror s =
  match String.split_on_char ',' s with
  | hostport :: globs -> (
    match String.rindex_opt hostport ':' with
    | Some i when i > 0 -> (
      let host = String.sub hostport 0 i in
      let p = String.sub hostport (i + 1) (String.length hostport - i - 1) in
      match int_of_string_opt p with
      | Some port when port > 0 -> Ok (host, port, globs)
      | _ -> Error (Printf.sprintf "bad mirror port %s" p))
    | _ -> Error (Printf.sprintf "want HOST:PORT[,GLOB...], got %s" s))
  | [] -> Error "empty --mirror"

let run port host policy max_queue evict_grace auth_keys drain shards
    metrics_port store_dir store_fsync store_segment_mb store_retain_segments
    store_retain_mb store_retain_age store_compress relay_id mirror
    mirror_promote mirror_rescan mirror_compress governor_budget
    governor_retry_ms trace_sample trace_buffer trace_slow_us ingress_rate
    ingress_burst verbose =
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
        ~evict_grace_s:evict_grace ~auth_keys ~drain_s:drain ~governor
        ?ingress ?trace ?store ?relay_id ()
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
      let trace_routes =
        if trace = None then []
        else
          [ ( "/trace/spans"
            , fun () ->
                Omf_httpd.Http.ok ~content_type:"application/json"
                  (Omf_relay.Relay.Trace.chrome_json
                     (Omf_relay.Relay.trace_spans relay)) ) ]
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
  let module Relay = Omf_relay.Relay in
  let conv = Omf_util.Cli.conv in
  let port = ref 9117
  and host = ref "127.0.0.1"
  and policy = ref Relay.Block
  and max_queue = ref 256
  and evict_grace = ref 1.0
  and drain = ref 2.0
  and auth_keys = ref []
  and shards = ref 1
  and metrics_port = ref None
  and store = ref None
  and store_fsync = ref (Relay.Store.Interval 0.1)
  and store_segment_mb = ref 64
  and store_retain_segments = ref 0
  and store_retain_mb = ref 0
  and store_retain_age = ref 0.0
  and store_compress = ref false
  and relay_id = ref None
  and mirror = ref None
  and mirror_promote = ref false
  and mirror_rescan = ref 1.0
  and mirror_compress = ref false
  and governor_budget = ref 0
  and governor_retry_ms = ref 250
  and trace_sample = ref 0.0
  and trace_buffer = ref 4096
  and trace_slow_us = ref 0
  and ingress_rate = ref 0.0
  and ingress_burst = ref 64.0
  and verbose = ref false in
  let specs =
    [ ("--port", Arg.Set_int port, "PORT TCP port (0 = ephemeral; default 9117).")
    ; ("-p", Arg.Set_int port, "PORT Same as --port.")
    ; ("--host", Arg.Set_string host, "HOST Address to bind (default 127.0.0.1).")
    ; ( "--policy"
      , conv parse_policy (( := ) policy)
      , "POLICY Backpressure policy for slow subscribers: block (stop \
         reading publishers, loss-free; the default), drop-oldest (shed \
         oldest queued data frame), or evict-slow-consumer (disconnect the \
         laggard)." )
    ; ( "--max-queue"
      , Arg.Set_int max_queue
      , "FRAMES Queued data frames per subscriber before the policy applies \
         (default 256)." )
    ; ( "--evict-grace"
      , Arg.Set_float evict_grace
      , "SECONDS How long a subscriber may stay over the queue watermark \
         before evict-slow-consumer disconnects it (default 1)." )
    ; ( "--drain"
      , Arg.Set_float drain
      , "SECONDS Graceful-shutdown flush deadline (default 2)." )
    ; ( "--auth-key"
      , conv parse_keypair (fun k -> auth_keys := k :: !auth_keys)
      , "KEYID=SECRET Accept HMAC-authenticated framing under this key \
         (repeatable). Clients opting in at HELLO get every subsequent \
         frame sealed and verified in both directions, and are \
         disconnected once 3 frames fail verification; with no \
         --auth-key the mode is refused." )
    ; ( "--shards"
      , Arg.Set_int shards
      , "N Run N event loops: the first on the main thread, which also \
         accepts, the others on a domain each. Streams are pinned to \
         shards, preserving per-stream delivery order (default 1)." )
    ; ( "--metrics-port"
      , Arg.Int (fun p -> metrics_port := Some p)
      , "PORT Also serve relay counters in Prometheus text format on GET \
         /metrics at this port." )
    ; ( "--store"
      , Arg.String (fun d -> store := Some d)
      , "DIR Persist every stream to a segmented append-only log under DIR \
         (doc/STORE.md): publishers can request durability acks, \
         subscribers can replay stored offsets, and a restarted relayd \
         recovers all streams from disk." )
    ; ( "--store-fsync"
      , conv Relay.Store.fsync_policy_of_string (( := ) store_fsync)
      , "POLICY Durability policy: never (page cache only), every=N (fsync \
         once per N appends), or interval=SECS (fsync on a timer; the \
         default, interval=0.1)." )
    ; ( "--store-segment-mb"
      , Arg.Set_int store_segment_mb
      , "MB Roll to a new segment file past MB MiB (default 64)." )
    ; ( "--store-retain-segments"
      , Arg.Set_int store_retain_segments
      , "N Keep at most N segment files per stream (0 = all)." )
    ; ( "--store-retain-mb"
      , Arg.Set_int store_retain_mb
      , "MB Cap each stream's segments at MB MiB (0 = unlimited)." )
    ; ( "--store-retain-age-s"
      , Arg.Set_float store_retain_age
      , "SECONDS Drop sealed segments older than SECONDS seconds (0 = \
         never)." )
    ; ( "--store-compress"
      , Arg.Set store_compress
      , " Rewrite each segment as one LZ block when it is sealed \
         (doc/COMPRESS.md): the tail stays plain so appends and torn-tail \
         recovery are untouched, replay inflates transparently, and the \
         retention budgets count the compressed on-disk size." )
    ; ( "--relay-id"
      , Arg.String (fun id -> relay_id := Some id)
      , "ID Replication identity for origin-tagged streams (PROTOCOLS.md \
         §15). Defaults to the id persisted in --store/relay-id, or a \
         fresh random id without a store." )
    ; ( "--mirror"
      , conv parse_mirror (fun m -> mirror := Some m)
      , "HOST:PORT[,GLOB...] Follow the relayd at HOST:PORT: replicate its \
         streams (all, or only those matching the comma-separated globs) \
         into the local store and re-advertise them read-only with their \
         origin tags (doc/MIRROR.md)." )
    ; ( "--mirror-promote-on-loss"
      , Arg.Set mirror_promote
      , " When a mirrored source stays unreachable past the reconnect \
         budget, promote its streams to local ownership (epoch bump) so \
         clients can fail over to this relay for writes too." )
    ; ( "--mirror-rescan"
      , Arg.Set_float mirror_rescan
      , "SECONDS How often the mirror manager re-LISTs the source for new \
         streams and refreshes replication-lag gauges (default 1)." )
    ; ( "--mirror-compress"
      , Arg.Set mirror_compress
      , " Offer comp=lz wire compression on every replication link to the \
         source (doc/COMPRESS.md, PROTOCOLS.md §18). A source that does \
         not speak compression negotiates down to plain frames, so the flag \
         is safe against old relays." )
    ; ( "--governor-budget"
      , Arg.Set_int governor_budget
      , "BYTES Per-shard outbound byte budget for the overload governor \
         (doc/OVERLOAD.md): crossing 70%/90% of BYTES degrades and then \
         overloads the shard — stored replay is throttled, slow \
         consumers evicted eagerly, and PUBLISH / replay SUBSCRIBE refused \
         with a retryable busy reply until the backlog drains. 0 (the \
         default) disables the governor." )
    ; ( "--governor-retry-ms"
      , Arg.Set_int governor_retry_ms
      , "MS Retry hint carried in busy replies while overloaded (default \
         250)." )
    ; ( "--trace-sample"
      , Arg.Set_float trace_sample
      , "RATE Head-sample this fraction of published frames for end-to-end \
         stage tracing (doc/TRACE.md): 0.01 records one frame in a hundred \
         through admit, store, fanout, flush and delivery. 0 (the default) \
         disables tracing unless --trace-slow-us is set." )
    ; ( "--trace-buffer"
      , Arg.Set_int trace_buffer
      , "SPANS Per-shard span ring-buffer capacity; the oldest spans are \
         overwritten once full (default 4096)." )
    ; ( "--trace-slow-us"
      , Arg.Set_int trace_slow_us
      , "MICROS Always record stage spans at least this slow, even when the \
         frame lost the sampling coin toss. 0 = off." )
    ; ( "--ingress-rate"
      , Arg.Set_float ingress_rate
      , "FRAMES/S Per-connection publisher rate limit: a publisher sending \
         data frames faster than FRAMES/S has its reads paused until its \
         token bucket refills (TCP pushes back). 0 = unlimited." )
    ; ( "--ingress-burst"
      , Arg.Set_float ingress_burst
      , "FRAMES Burst allowance for --ingress-rate (default 64)." )
    ; ("--verbose", Arg.Set verbose, " Debug logging.")
    ; ("-v", Arg.Set verbose, " Same as --verbose.") ]
  in
  ignore
    (Omf_util.Cli.parse ~name:"relayd"
       ~doc:"relayd: networked event-relay daemon (NDR pub/sub over TCP)"
       specs Sys.argv);
  Omf_util.Cli.exit_with ~name:"relayd"
    (run !port !host !policy !max_queue !evict_grace (List.rev !auth_keys)
       !drain !shards !metrics_port !store !store_fsync
       !store_segment_mb !store_retain_segments !store_retain_mb
       !store_retain_age !store_compress !relay_id !mirror !mirror_promote
       !mirror_rescan !mirror_compress !governor_budget !governor_retry_ms
       !trace_sample !trace_buffer !trace_slow_us !ingress_rate
       !ingress_burst !verbose)
