(** Relay-to-relay stream replication (doc/MIRROR.md, PROTOCOLS.md §15).

    Per replicated stream, one link: a {!Omf_relay.Relay.Session}
    subscriber on the source feeding one acked [mirror=1] Session
    publisher on the local relay. Recovery (reconnect, backoff, busy
    waits, handshake replay) is the Sessions'; what lives here is
    discovery, the DESCRIBE-time loop guard, retrying a link's failed
    first handshake, the liveness probe before promotion, and
    accounting. See mirror.mli for the full contract. *)

module Relay = Omf_relay.Relay
module Proto = Omf_relay.Relay_proto
module Client = Relay.Client
module Session = Relay.Session
module Counters = Omf_util.Counters
module Trace = Omf_trace.Trace

let log = Logs.Src.create "omf.mirror" ~doc:"relay-to-relay replication"

module Log = (val Logs.src_log log)

type config = {
  source_host : string;
  source_port : int;
  local_host : string;
  local_port : int;
  local_relay_id : string;
  globs : string list;
  rescan_s : float;
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  promote_on_loss : bool;
  source_auth : (string * string) option;
  local_auth : (string * string) option;
  compress : bool;
  io_timeout_s : float;
  trace : Trace.settings option;
}

let config ?(globs = []) ?(rescan_s = 1.0) ?(max_attempts = 8)
    ?(base_delay_s = 0.05) ?(max_delay_s = 1.0) ?(promote_on_loss = false)
    ?source_auth ?local_auth ?(compress = false) ?(io_timeout_s = 0.5) ?trace
    ?(local_host = "127.0.0.1") ~source_host ~source_port ~local_port
    ~local_relay_id () : config =
  { source_host; source_port; local_host; local_port; local_relay_id; globs
  ; rescan_s; max_attempts; base_delay_s; max_delay_s; promote_on_loss
  ; source_auth; local_auth; compress; io_timeout_s; trace }

(* ------------------------------------------------------------------ *)
(* Stream-name globs                                                    *)
(* ------------------------------------------------------------------ *)

(* '*' matches any run of characters; everything else is literal *)
let glob_match (pat : string) (s : string) : bool =
  let np = String.length pat and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pat.[pi] with
      | '*' ->
        let rec try_at k = k <= ns && (go (pi + 1) k || try_at (k + 1)) in
        try_at si
      | c -> si < ns && Char.equal s.[si] c && go (pi + 1) (si + 1)
  in
  go 0 0

let wanted (cfg : config) (stream : string) : bool =
  cfg.globs = [] || List.exists (fun p -> glob_match p stream) cfg.globs

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

type link_state = {
  l_stream : string;
  mutable l_thread : Thread.t option;
  mutable l_pub : Session.publisher option;
  mutable l_sub : Session.subscriber option;
      (** the live sessions: {!stop} closes them to end the link *)
  mutable l_tally : unit -> unit;
      (** folds the live sessions' own counts into the counters *)
  mutable l_done : bool;  (** thread returned; manager may respawn *)
  mutable l_promoted : bool;  (** stream promoted locally: link retired *)
  mutable l_replicated : int;  (** message frames pumped by this link *)
}

type t = {
  cfg : config;
  counters : Counters.t;
  trace_col : Trace.collector option;
      (** the mirror's own span ring (shard [-1], distinguishing its
          spans from relay shards in merged exports) *)
  mu : Mutex.t;  (** guards [links] (manager vs. stop) *)
  links : (string, link_state) Hashtbl.t;
  mutable manager : Thread.t option;
  mutable stopped : bool;
}

(** Fold every live link's session counts ([reconnects],
    [busy_backoffs], [descriptors_replicated]) into the counters. *)
let refresh (t : t) =
  Mutex.protect t.mu (fun () -> Hashtbl.iter (fun _ ls -> ls.l_tally ()) t.links)

let counters (t : t) = t.counters

let stats (t : t) : (string * int) list =
  refresh t;
  Counters.dump t.counters

let trace_spans (t : t) : Trace.span list =
  match t.trace_col with None -> [] | Some col -> Trace.spans col

let link_frames (t : t) : (string * int) list =
  Mutex.lock t.mu;
  let l =
    Hashtbl.fold (fun s ls acc -> (s, ls.l_replicated) :: acc) t.links []
  in
  Mutex.unlock t.mu;
  List.sort compare l

(* ------------------------------------------------------------------ *)
(* One replication link                                                 *)
(* ------------------------------------------------------------------ *)

(** What the source's DESCRIBE says a link replicates. *)
type advert = {
  meta : (string * string) list;  (** source metadata, [trace=] stripped *)
  schema : string;
  origin : string;
  epoch : int;
  trace : Trace.ctx option;  (** adopted for the local [mirror=1] PUBLISH *)
}

(* Frames the local publisher may hold unacknowledged. Acks follow the
   local store's fsync, so the window caps a link at window /
   fsync-interval frames/s: about 82k/s at relayd's default
   [interval=0.1], 8k/s at [interval=1] (doc/MIRROR.md §4). *)
let ack_window = 8192

(* The source session gets no read deadline: an idle source is not a
   broken one, and {!stop} wakes the pump by closing the session. *)
let session_config ?io_timeout_s (cfg : config) ~host ~port ~auth =
  Session.config ~host ?auth ~compress:cfg.compress
    ~max_attempts:cfg.max_attempts ~base_delay_s:cfg.base_delay_s
    ~max_delay_s:cfg.max_delay_s ~connect_timeout_s:cfg.io_timeout_s
    ?io_timeout_s ~port ()

(** One control exchange (LIST, DESCRIBE, STATS, PROMOTE) on a
    short-lived connection to the source or the local relay. *)
let with_client (t : t) ~local f =
  let c = t.cfg in
  let host, port, auth =
    if local then (c.local_host, c.local_port, c.local_auth)
    else (c.source_host, c.source_port, c.source_auth)
  in
  let client =
    Client.connect ~host ~port ?auth ~io_timeout_s:c.io_timeout_s ()
  in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

(** The source is gone for good (budget exhausted): take ownership
    locally so consumers keep a writable stream. *)
let promote_local (t : t) (ls : link_state) =
  match with_client t ~local:true (Client.promote ~stream:ls.l_stream) with
  | epoch ->
    ls.l_promoted <- true;
    Counters.incr t.counters "promotes";
    Log.warn (fun m ->
        m "stream %s: source lost; promoted locally at epoch %d" ls.l_stream
          epoch)
  | exception e ->
    Counters.incr t.counters "promote_failures";
    Log.err (fun m ->
        m "stream %s: promote failed: %s" ls.l_stream (Printexc.to_string e))

(** A link's [l_tally]: adds what the two sessions counted since the
    last call — [reconnects], [busy_backoffs] and
    [descriptors_replicated] (distinct descriptors learned). Called
    under [t.mu] by {!refresh} and once more when the link ends. *)
let tally (t : t) sub pub =
  let last = Array.make 3 0 in
  let fold i key now =
    if now > last.(i) then begin
      Counters.incr t.counters ~by:(now - last.(i)) key;
      last.(i) <- now
    end
  in
  fun () ->
    fold 0 "reconnects"
      (Session.subscriber_reconnects sub + Session.publisher_reconnects pub);
    fold 1 "busy_backoffs"
      (Session.subscriber_busy_waits sub + Session.publisher_busy_waits pub);
    fold 2 "descriptors_replicated"
      (Session.subscriber_stats sub).formats_learned

(** Hand one message frame to the local relay, recording a
    [mirror_replicate] span when the stream's trace is sampled or the
    hand-off was slow. *)
let forward (t : t) (ls : link_state) (ad : advert) pub (fmt, msg) =
  ls.l_replicated <- ls.l_replicated + 1;
  Counters.incr t.counters "frames_replicated";
  match (t.trace_col, ad.trace) with
  | Some col, Some ctx ->
    let t0 = Omf_util.Clock.now_us () in
    Session.publish_frame pub fmt msg;
    let dur = Omf_util.Clock.now_us () - t0 in
    if Trace.should_record col ~sampled:ctx.Trace.sampled ~dur_us:dur then begin
      Trace.record col ~trace:ctx.Trace.trace_id ~parent:ctx.Trace.span_id
        ~stage:"mirror_replicate" ~stream:ls.l_stream ~start_us:t0 ~dur_us:dur;
      Counters.observe t.counters "stage_us.mirror_replicate" dur
    end
  | _ -> Session.publish_frame pub fmt msg

(** One link: the local publisher's handshake fixes the resume point,
    the source subscriber starts there ([on_link] once both are up),
    and frames are pumped until the mirror stops or a session fails.
    Either way the publisher is flushed (best-effort) before it
    closes, so nothing is in flight when the link re-handshakes or the
    stream is promoted. *)
let replicate (t : t) (ls : link_state) (ad : advert) ~on_link =
  let cfg = t.cfg and stream = ls.l_stream in
  let pub =
    Session.publisher ~window:ack_window ~acked:true ~meta:ad.meta
      ~mirror:(ad.origin, ad.epoch) ?trace:ad.trace
      (session_config cfg ~host:cfg.local_host ~port:cfg.local_port
         ~auth:cfg.local_auth ~io_timeout_s:cfg.io_timeout_s)
      ~stream ~schema:ad.schema Omf_machine.Abi.native
  in
  ls.l_pub <- Some pub;
  Fun.protect ~finally:(fun () ->
      if not t.stopped then (try Session.flush_acked pub with _ -> ());
      Session.close_publisher pub)
  @@ fun () ->
  let from =
    if Session.publisher_acked pub then Session.publisher_durable pub else -1
  in
  let sub =
    Session.subscribe ~from
      (session_config cfg ~host:cfg.source_host ~port:cfg.source_port
         ~auth:cfg.source_auth)
      ~stream Omf_machine.Abi.native
  in
  ls.l_sub <- Some sub;
  Fun.protect ~finally:(fun () -> Session.close_subscriber sub) @@ fun () ->
  if from >= 0 && Session.subscriber_offset sub > from then
    (* source retention outran this replica: the gap is gone *)
    Counters.incr t.counters "resume_gap_clamped";
  Counters.incr t.counters "links_established";
  on_link ();
  Log.info (fun m ->
      m "stream %s: replicating %s@%d from offset %d" stream ad.origin ad.epoch
        from);
  let tally = tally t sub pub in
  Mutex.protect t.mu (fun () -> ls.l_tally <- tally);
  Fun.protect ~finally:(fun () ->
      Mutex.protect t.mu (fun () ->
          tally ();
          ls.l_tally <- ignore))
  @@ fun () ->
  let rec pump () =
    if not t.stopped then
      match Session.recv_subscriber_raw sub with
      | None -> ()
      | Some frame ->
        forward t ls ad pub frame;
        pump ()
  in
  pump ()

let refused = function Client.Error msg -> Proto.is_refusal msg | _ -> false

(** Does the source accept a TCP connection? Its process is up,
    whatever it then answers. *)
let listening (t : t) =
  match
    Omf_transport.Tcp.connect ~host:t.cfg.source_host ~port:t.cfg.source_port
      ~connect_timeout_s:t.cfg.io_timeout_s ()
  with
  | link ->
    Omf_transport.Link.close link;
    true
  | exception _ -> false

(** A reconnect budget ran out ([why]). Before calling the source lost,
    ask it once: a source that still answers is alive — serving the
    stream, shedding, or refusing it because it restarted without the
    stream or no longer knows this mirror's key. The link then parks
    until the next rescan, a refusal counting [links_refused];
    promoting would leave two writable owners. Only an unreachable
    source counts [sources_lost] and, with [promote_on_loss], is
    promoted away. *)
let budget_spent (t : t) (ls : link_state) why =
  let stream = ls.l_stream in
  match with_client t ~local:false (Client.describe ~stream) with
  | _ | (exception Client.Busy _) ->
    Log.info (fun m -> m "stream %s: %s; source answers, link parked" stream why)
  | exception e when refused e || listening t ->
    Counters.incr t.counters "links_refused";
    Log.info (fun m ->
        m "stream %s: %s; source refuses: %s" stream why (Printexc.to_string e))
  | exception _ ->
    Counters.incr t.counters "sources_lost";
    Log.warn (fun m -> m "stream %s: %s; source lost" stream why);
    if t.cfg.promote_on_loss && not t.stopped then promote_local t ls

(** Per-stream link thread: {!replicate}, and on the way out decide
    between pausing (busy), handshaking again, {!budget_spent} and
    parking until the next rescan (a refusal or any other failure). A
    session's first connection does not retry, so a failed handshake
    (either relay unreachable or hanging up) is retried here, every
    [max_delay_s], and [max_attempts] failures in a row spend the
    budget like a session's reconnects do. *)
let link_thread (t : t) (ls : link_state) (ad : advert) =
  let stream = ls.l_stream and failed = ref 0 in
  let rec go () =
    match replicate t ls ad ~on_link:(fun () -> failed := 0) with
    | () -> ()
    | exception Client.Busy { retry_ms } ->
      (* overload is neither an outage nor a refusal *)
      Counters.incr t.counters "busy_backoffs";
      Log.info (fun m ->
          m "stream %s: relay overloaded; pausing the link %dms" stream
            retry_ms);
      failed := 0;
      Thread.delay (float_of_int retry_ms /. 1000.);
      if not t.stopped then go ()
    | exception Session.Gave_up msg -> budget_spent t ls msg
    | exception e when Client.transient e && not (refused e) ->
      incr failed;
      let why = Printexc.to_string e in
      if !failed >= t.cfg.max_attempts then
        budget_spent t ls
          (Printf.sprintf "%d handshakes failed, last: %s" !failed why)
      else begin
        Log.info (fun m -> m "stream %s: handshake failed: %s" stream why);
        Thread.delay t.cfg.max_delay_s;
        if not t.stopped then go ()
      end
    | exception e ->
      if refused e then Counters.incr t.counters "links_refused";
      Log.info (fun m ->
          m "stream %s: link parked: %s" stream (Printexc.to_string e))
  in
  go ();
  ls.l_done <- true

(* ------------------------------------------------------------------ *)
(* Manager: discovery + lag gauges                                      *)
(* ------------------------------------------------------------------ *)

(** DESCRIBE a stream and apply the loop guard: only a tagged stream
    that did not originate here gets a link. *)
let describe (t : t) src (stream : string) : advert option =
  match Client.describe src ~stream with
  | exception Client.Error msg when Proto.is_refusal msg ->
    Counters.incr t.counters "links_refused";
    Log.info (fun m -> m "stream %s: refused: %s" stream msg);
    None
  | meta, schema ->
    let origin, epoch = Proto.tag meta ~relay_id:"" in
    if origin = "" then begin
      (* source predates origin tags: replicating without arbitration
         could amplify cycles, so refuse *)
      Counters.incr t.counters "untagged_skipped";
      None
    end
    else if String.equal origin t.cfg.local_relay_id then begin
      (* our own stream coming back around a cycle *)
      Counters.incr t.counters "loops_skipped";
      None
    end
    else
      (* §17: the source relay serves the stream's trace context as a
         [trace=] DESCRIBE metadata line. Adopt it for the local
         [mirror=1] PUBLISH — downstream spans join the same trace —
         and strip it before re-advertising: it is per-publisher state,
         not stream metadata to persist. *)
      let trace, meta = Proto.split_trace meta in
      let trace = if t.trace_col = None then None else trace in
      Some { meta; schema; origin; epoch; trace }

let spawn_link (t : t) (stream : string) (ad : advert) =
  let ls =
    { l_stream = stream; l_thread = None; l_pub = None; l_sub = None
    ; l_tally = ignore; l_done = false; l_promoted = false; l_replicated = 0 }
  in
  Hashtbl.replace t.links stream ls;
  Counters.incr t.counters "streams_linked";
  ls.l_thread <- Some (Thread.create (fun () -> link_thread t ls ad) ())

(** One manager pass: LIST the source, DESCRIBE and link every wanted
    stream that has no live (or retired-by-promote) link, and refresh
    the per-stream replication-lag gauges from both ends' STATS. *)
let scan (t : t) =
  refresh t;
  with_client t ~local:false @@ fun src ->
  let streams = Client.list_streams src |> List.filter (wanted t.cfg) in
  let needs_link s =
    Mutex.lock t.mu;
    let r =
      match Hashtbl.find_opt t.links s with
      | None -> not t.stopped
      | Some ls -> ls.l_done && (not ls.l_promoted) && not t.stopped
    in
    Mutex.unlock t.mu;
    r
  in
  List.iter
    (fun s ->
      if needs_link s then
        Option.iter
          (fun ad ->
            Mutex.lock t.mu;
            if not t.stopped then spawn_link t s ad;
            Mutex.unlock t.mu)
          (describe t src s))
    streams;
  (* replication lag: source tail minus local tail, per linked stream.
     The gauge names follow the <group>.<subject>.<metric> convention,
     so /metrics renders them as
     omf_..._mirror_lag_frames{stream="..."}. *)
  match (Client.stats src, with_client t ~local:true Client.stats) with
  | src_stats, local_stats ->
    List.iter
      (fun stream ->
        let tail stats =
          List.assoc_opt (Printf.sprintf "store.%s.tail" stream) stats
        in
        match (tail src_stats, tail local_stats) with
        | Some s, Some l ->
          Counters.set t.counters
            (Printf.sprintf "mirror.%s.lag_frames" stream)
            (max 0 (s - l))
        | _ -> ())
      streams
  | exception _ -> ()

let manager_loop (t : t) =
  (* sleep rescan_s in steps of at most 50 ms, so {!stop} is noticed *)
  let step = Float.min 0.05 t.cfg.rescan_s in
  let rec nap n =
    if n > 0 && not t.stopped then (Thread.delay step; nap (n - 1))
  in
  while not t.stopped do
    (try scan t with _ -> Counters.incr t.counters "scan_failures");
    nap (int_of_float (Float.round (t.cfg.rescan_s /. step)))
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start (cfg : config) : t =
  let t =
    { cfg; counters = Counters.create ()
    ; trace_col = Option.map (fun s -> Trace.collector ~shard:(-1) s) cfg.trace
    ; mu = Mutex.create ()
    ; links = Hashtbl.create 8; manager = None; stopped = false }
  in
  t.manager <- Some (Thread.create (fun () -> manager_loop t) ());
  Log.info (fun m ->
      m "mirroring %s:%d -> %s:%d%s%s" cfg.source_host cfg.source_port
        cfg.local_host cfg.local_port
        (match cfg.globs with
        | [] -> ""
        | gs -> Printf.sprintf " (streams %s)" (String.concat "," gs))
        (if cfg.promote_on_loss then ", promote-on-loss" else ""));
  t

let stop (t : t) : unit =
  if not t.stopped then begin
    t.stopped <- true;
    Option.iter Thread.join t.manager;
    t.manager <- None;
    Mutex.lock t.mu;
    let links = Hashtbl.fold (fun _ ls acc -> ls :: acc) t.links [] in
    Mutex.unlock t.mu;
    (* closing the sessions wakes a pump blocked on an idle source or in
       either session's reconnect loop *)
    List.iter
      (fun ls ->
        Option.iter Session.close_subscriber ls.l_sub;
        Option.iter Session.close_publisher ls.l_pub)
      links;
    List.iter (fun ls -> Option.iter Thread.join ls.l_thread) links
  end
