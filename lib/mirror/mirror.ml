(** Relay-to-relay stream replication (doc/MIRROR.md, PROTOCOLS.md §15).

    A mirror runs next to a local relay and keeps it a live replica of
    a source relay: it lists the source's streams, and for each one it
    wants it re-advertises the stream locally with the source's
    metadata verbatim (registry binding plus [origin]/[epoch] tag),
    enters the local relay as a [mirror=1] publisher — the only writer
    admitted past the read-only gate on a foreign-origin stream — and
    pumps the source's descriptor/message frames into it, resuming
    from the local store's tail so offsets stay aligned with the
    source and a consumer can fail over by resubscribing at its next
    expected offset.

    Loop prevention is the origin tag: a stream whose origin is the
    {e local} relay id is skipped client-side (its frames would only
    come back around), and the relay's advertise/publish gates refuse
    anything the tag arbitration loses (stale epochs after a promote,
    a relay's own advert arriving around a cycle), so an A<->B
    bidirectional pair replicates each stream exactly once in the
    right direction.

    Failure handling mirrors {!Omf_relay.Relay.Session}: a broken link
    tears down both sides and re-handshakes under a bounded
    exponential-backoff budget ([publish_mirror] returns the fresh
    local tail, which is exactly the resume point). An exhausted
    budget with [promote_on_loss] promotes the stream locally — the
    replica becomes writable at a bumped epoch and consumers carry on
    against it; without it the link parks until the next manager
    rescan finds the source again. *)

module Relay = Omf_relay.Relay
module Proto = Omf_relay.Relay_proto
module Client = Relay.Client
module Counters = Omf_util.Counters
module Trace = Omf_trace.Trace
open Omf_transport

let log = Logs.Src.create "omf.mirror" ~doc:"relay-to-relay replication"

module Log = (val Logs.src_log log)

type config = {
  source_host : string;
  source_port : int;
  local_host : string;
  local_port : int;
  local_relay_id : string;
      (** the local relay's replication identity
          ({!Omf_relay.Relay.relay_id}) — the client-side loop guard:
          source streams carrying this origin are our own and are
          never replicated back *)
  globs : string list;
      (** replicate only streams matching one of these patterns
          (['*'] wildcards); [[]] = every stream *)
  rescan_s : float;  (** manager period: stream discovery + lag gauges *)
  max_attempts : int;
      (** consecutive failed re-handshakes before a link declares the
          source lost *)
  base_delay_s : float;  (** first backoff step *)
  max_delay_s : float;  (** backoff cap *)
  promote_on_loss : bool;
      (** on a lost source, promote the stream locally (bumped epoch)
          instead of parking the link *)
  source_auth : (string * string) option;
  local_auth : (string * string) option;
  compress : bool;
      (** offer [comp=lz] on both legs of every replication link
          (PROTOCOLS.md §18): the replay/live frame stream from the
          source and the [mirror=1] re-publish into the local relay
          both travel as LZ blocks when the peer grants it, and
          negotiate down transparently when it doesn't *)
  io_timeout_s : float;
      (** per-operation deadline on every connection; also how quickly
          an idle pump notices a stop request *)
  trace : Trace.settings option;
      (** record [mirror_replicate] spans (doc/TRACE.md, PROTOCOLS.md
          §17): the mirror adopts the source stream's trace context
          (served in DESCRIBE metadata) and re-attaches it to the
          local [mirror=1] PUBLISH, so one trace crosses relays *)
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
  mutable l_stop : bool;
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

let counters (t : t) = t.counters
let stats (t : t) : (string * int) list = Counters.dump t.counters

let trace_spans (t : t) : Trace.span list =
  match t.trace_col with None -> [] | Some col -> Trace.spans col

let link_frames (t : t) : (string * int) list =
  Mutex.lock t.mu;
  let l =
    Hashtbl.fold (fun s ls acc -> (s, ls.l_replicated) :: acc) t.links []
  in
  Mutex.unlock t.mu;
  List.sort compare l

(** Interruptible sleep: wakes within 50ms of a stop request. *)
let nap (t : t) (ls : link_state option) (secs : float) =
  let deadline = Unix.gettimeofday () +. secs in
  let stop_asked () =
    t.stopped || match ls with Some l -> l.l_stop | None -> false
  in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0.0 && not (stop_asked ()) then begin
      Thread.delay (Float.min 0.05 left);
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* One replication session                                              *)
(* ------------------------------------------------------------------ *)

let connect_source (cfg : config) : Client.t =
  Client.connect ~host:cfg.source_host ~port:cfg.source_port
    ?auth:cfg.source_auth ~compress:cfg.compress
    ~io_timeout_s:cfg.io_timeout_s ()

let connect_local (cfg : config) : Client.t =
  Client.connect ~host:cfg.local_host ~port:cfg.local_port
    ?auth:cfg.local_auth ~compress:cfg.compress
    ~io_timeout_s:cfg.io_timeout_s ()

type session_end =
  | Stopped  (** stop requested mid-pump *)
  | Refused  (** gate refusal / vanished stream: park until rescan *)
  | Busy of int
      (** a relay shed the handshake with [busy retry_ms=N]
          (PROTOCOLS.md §16): pause catch-up for the hinted delay and
          retry — overload is neither an outage nor a refusal, so it
          burns no reconnect budget and never parks the link *)
  | Lost of bool  (** link broke; [true] = the session had established *)

(** Run one full replication session for [ls.l_stream]: handshake both
    sides, then pump until something breaks. *)
let replicate_once (t : t) (ls : link_state) : session_end =
  let cfg = t.cfg in
  let stream = ls.l_stream in
  let established = ref false in
  match
    let src = connect_source cfg in
    Fun.protect ~finally:(fun () -> Client.close src) @@ fun () ->
    let meta, schema = Client.describe src ~stream in
    let origin, epoch = Proto.tag meta ~relay_id:"" in
    if origin = "" then begin
      (* source predates origin tags: replicating without arbitration
         could amplify cycles, so refuse *)
      Counters.incr t.counters "untagged_skipped";
      Refused
    end
    else if String.equal origin cfg.local_relay_id then begin
      (* our own stream coming back around a cycle *)
      Counters.incr t.counters "loops_skipped";
      Refused
    end
    else begin
      (* §17: the source relay serves the stream's trace context as a
         [trace=] DESCRIBE metadata line. Adopt it for the local
         [mirror=1] PUBLISH — downstream spans join the same trace —
         and strip it before re-advertising: it is per-publisher state,
         not stream metadata to persist. *)
      let trace, meta = Proto.split_trace meta in
      let trace = if t.trace_col = None then None else trace in
      let lc = connect_local cfg in
      Fun.protect ~finally:(fun () -> Client.close lc) @@ fun () ->
      Client.advertise lc ~meta ~stream ~schema;
      let wm, local_link =
        Client.publish_mirror ?trace lc ~stream ~origin ~epoch
      in
      (* the local tail is the exact resume point: source offsets and
         local offsets are aligned (both dense from 0, appended in the
         same order), so failover consumers resume seamlessly *)
      let from = match wm with Some (_, tail) -> tail | None -> -1 in
      let off, _schema, src_link = Client.subscribe_from src ~stream ~from in
      (match (off, wm) with
      | Some start, Some _ when from >= 0 && start > from ->
        (* source retention outran this replica: the gap is gone *)
        Counters.incr t.counters "resume_gap_clamped"
      | _ -> ());
      established := true;
      Counters.incr t.counters "links_established";
      Log.info (fun m ->
          m "stream %s: replicating %s@%d from offset %d" stream origin epoch
            from);
      (* forward one message frame, recording a [mirror_replicate]
         span (time to hand the frame to the local relay) when the
         stream's trace is sampled or the send was slow *)
      let send_traced frame =
        match (t.trace_col, trace) with
        | Some col, Some ctx ->
          let t0 = Trace.now_us () in
          Link.send local_link frame;
          let dur = Trace.now_us () - t0 in
          if Trace.should_record col ~sampled:ctx.Trace.sampled ~dur_us:dur
          then begin
            Trace.record col ~trace:ctx.Trace.trace_id
              ~parent:ctx.Trace.span_id ~stage:"mirror_replicate" ~stream
              ~start_us:t0 ~dur_us:dur;
            Counters.observe t.counters "stage_us.mirror_replicate" dur
          end
        | _ -> Link.send local_link frame
      in
      let rec pump () =
        if ls.l_stop || t.stopped then Stopped
        else
          match Link.recv src_link with
          | Some frame
            when Bytes.length frame > 0
                 && Char.equal (Bytes.get frame 0) Endpoint.frame_descriptor
            ->
            Link.send local_link frame;
            Counters.incr t.counters "descriptors_replicated";
            pump ()
          | Some frame
            when Bytes.length frame > 0
                 && Char.equal (Bytes.get frame 0) Endpoint.frame_message ->
            send_traced frame;
            ls.l_replicated <- ls.l_replicated + 1;
            Counters.incr t.counters "frames_replicated";
            pump ()
          | Some _ -> pump ()
          | None -> Lost true
          | exception Link.Timeout ->
            (* idle source: just a chance to notice a stop request *)
            pump ()
      in
      pump ()
    end
  with
  | v -> v
  | exception Client.Busy { retry_ms } ->
    Counters.incr t.counters "busy_backoffs";
    Log.info (fun m ->
        m "stream %s: relay overloaded; pausing catch-up %dms" stream retry_ms);
    Busy retry_ms
  | exception Client.Error msg when Proto.is_refusal msg ->
    Counters.incr t.counters "links_refused";
    Log.info (fun m -> m "stream %s: refused: %s" stream msg);
    Refused
  | exception
      ( Client.Error _ | Link.Closed | Link.Timeout | End_of_file
      | Tcp.Tcp_error _ | Omf_reactor.Frame.Frame_error _ | Unix.Unix_error _ )
      ->
    Lost !established

(** The source is gone for good (budget exhausted): take ownership
    locally so consumers keep a writable stream. *)
let promote_local (t : t) (ls : link_state) =
  match
    let lc = connect_local t.cfg in
    Fun.protect
      ~finally:(fun () -> Client.close lc)
      (fun () -> Client.promote lc ~stream:ls.l_stream)
  with
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

(** Per-stream link driver: session after session under the reconnect
    budget. Consecutive failures count against [max_attempts]; any
    established session resets the clock. *)
let link_loop (t : t) (ls : link_state) =
  let cfg = t.cfg in
  let failures = ref 0 in
  let running = ref true in
  while (not ls.l_stop) && (not t.stopped) && !running do
    (match replicate_once t ls with
    | Stopped -> running := false
    | Refused -> running := false  (* parked; the next rescan retries *)
    | Busy retry_ms ->
      (* graceful degradation, not failure: announce the lag (the
         gauges keep refreshing from the manager) and retry after the
         relay's own hint without touching the failure budget *)
      nap t (Some ls) (float_of_int retry_ms /. 1000.)
    | Lost established ->
      if established then failures := 0;
      incr failures;
      Counters.incr t.counters "reconnects";
      if !failures >= cfg.max_attempts then begin
        Counters.incr t.counters "sources_lost";
        if cfg.promote_on_loss && not (ls.l_stop || t.stopped) then
          promote_local t ls;
        running := false
      end
      else
        nap t (Some ls)
          (Float.min cfg.max_delay_s
             (cfg.base_delay_s *. (2.0 ** float_of_int (!failures - 1)))));
    ()
  done;
  ls.l_done <- true

(* ------------------------------------------------------------------ *)
(* Manager: discovery + lag gauges                                      *)
(* ------------------------------------------------------------------ *)

let spawn_link (t : t) (stream : string) =
  let ls =
    { l_stream = stream; l_thread = None; l_stop = false; l_done = false
    ; l_promoted = false; l_replicated = 0 }
  in
  Hashtbl.replace t.links stream ls;
  Counters.incr t.counters "streams_linked";
  ls.l_thread <- Some (Thread.create (fun () -> link_loop t ls) ())

(** One manager pass: LIST the source, link every wanted stream that
    has no live (or retired-by-promote) link, and refresh the
    per-stream replication-lag gauges from both ends' STATS. *)
let scan (t : t) =
  let src = connect_source t.cfg in
  Fun.protect ~finally:(fun () -> Client.close src) @@ fun () ->
  let streams = Client.list_streams src |> List.filter (wanted t.cfg) in
  Mutex.lock t.mu;
  let to_spawn =
    List.filter
      (fun s ->
        match Hashtbl.find_opt t.links s with
        | None -> not t.stopped
        | Some ls -> ls.l_done && (not ls.l_promoted) && not t.stopped)
      streams
  in
  Mutex.unlock t.mu;
  List.iter
    (fun s ->
      Mutex.lock t.mu;
      spawn_link t s;
      Mutex.unlock t.mu)
    to_spawn;
  (* replication lag: source tail minus local tail, per linked stream.
     The gauge names follow the <group>.<subject>.<metric> convention,
     so /metrics renders them as
     omf_..._mirror_lag_frames{stream="..."}. *)
  match
    let src_stats = Client.stats src in
    let lc = connect_local t.cfg in
    Fun.protect
      ~finally:(fun () -> Client.close lc)
      (fun () -> (src_stats, Client.stats lc))
  with
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
  while not t.stopped do
    (match scan t with
    | () -> ()
    | exception _ -> Counters.incr t.counters "scan_failures");
    nap t None t.cfg.rescan_s
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
    Mutex.lock t.mu;
    let links = Hashtbl.fold (fun _ ls acc -> ls :: acc) t.links [] in
    Mutex.unlock t.mu;
    List.iter (fun ls -> ls.l_stop <- true) links;
    Option.iter Thread.join t.manager;
    t.manager <- None;
    List.iter (fun ls -> Option.iter Thread.join ls.l_thread) links
  end
