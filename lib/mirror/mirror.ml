(** Relay-to-relay stream replication (doc/MIRROR.md, PROTOCOLS.md §15):
    discovery, the loop guard, each link's handshake and retry loop, the
    liveness probe before promotion, and accounting. The relay shard
    hosting a live link replicates its frames. See mirror.mli. *)

module Relay = Omf_relay.Relay
module Proto = Omf_relay.Relay_proto
module Client = Relay.Client
module Relay_client = Omf_relay.Relay_client
module Counters = Omf_util.Counters

module Log = Omf_util.Log

type config = {
  source_host : string;
  source_port : int;
  globs : string list;
  rescan_s : float;
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  promote_on_loss : bool;
  source_auth : (string * string) option;
  compress : bool;
  io_timeout_s : float;
}

let config ?(globs = []) ?(rescan_s = 1.0) ?(max_attempts = 8)
    ?(base_delay_s = 0.05) ?(max_delay_s = 1.0) ?(promote_on_loss = false)
    ?source_auth ?(compress = false) ?(io_timeout_s = 0.5) ~source_host
    ~source_port () : config =
  { source_host; source_port; globs; rescan_s; max_attempts; base_delay_s
  ; max_delay_s; promote_on_loss; source_auth; compress; io_timeout_s }

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
  mutable l_replica : Relay.replica option;
      (** the link handed to the relay: {!stop} unlinks it *)
  mutable l_closed : bool option;
      (** the relay closed the live link: [Some local] *)
  mutable l_done : bool;  (** thread returned; manager may respawn *)
  mutable l_promoted : bool;  (** stream promoted locally: link retired *)
}

type t = {
  relay : Relay.t;  (** the local relay, hosting every link *)
  cfg : config;
  counters : Counters.t;
  mu : Mutex.t;  (** guards [links] and the links' [l_replica]/[l_closed] *)
  closed : Condition.t;  (** some live link closed *)
  links : (string, link_state) Hashtbl.t;
  mutable manager : Thread.t option;
  mutable stopped : bool;
}

(* neither the mirror's nor the local relay's stop is a source outage *)
let stopped (t : t) = t.stopped || Relay.stopping t.relay
let stats (t : t) : (string * int) list = Counters.dump t.counters

(* ------------------------------------------------------------------ *)
(* One replication link                                                 *)
(* ------------------------------------------------------------------ *)

exception Parked of string
(** The local relay refused or cannot host the link: no fresh
    connection to the source cures that. *)

let refused = function
  | Client.Error msg | Parked msg -> Proto.is_refusal msg
  | _ -> false

let connect_source (t : t) ~compress =
  let c = t.cfg in
  Client.connect ~host:c.source_host ~port:c.source_port ?auth:c.source_auth
    ~compress ~connect_timeout_s:c.io_timeout_s ~io_timeout_s:c.io_timeout_s ()

(** LIST, DESCRIBE or STATS on a short-lived source connection. *)
let with_source (t : t) f =
  let client = connect_source t ~compress:false in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

(** The source is gone for good (budget exhausted): take ownership
    locally so consumers keep a writable stream. *)
let promote_local (t : t) (ls : link_state) =
  match Relay.promote_stream t.relay ~stream:ls.l_stream with
  | Ok epoch ->
    ls.l_promoted <- true;
    Counters.incr t.counters "promotes";
    Log.warn (fun m ->
        m "stream %s: source lost; promoted locally at epoch %d" ls.l_stream
          epoch)
  | Error msg ->
    Counters.incr t.counters "promote_failures";
    Log.err (fun m -> m "stream %s: promote failed: %s" ls.l_stream msg)

(** Does the source accept a TCP connection? Its process is up,
    whatever it then answers. *)
let listening (t : t) =
  match
    Omf_transport.Tcp.dial ~host:t.cfg.source_host ~port:t.cfg.source_port
      ~connect_timeout_s:t.cfg.io_timeout_s ()
  with
  | fd ->
    Unix.close fd;
    true
  | exception Omf_transport.Tcp.Tcp_error _ -> false

(** A link's handshakes failed [max_attempts] times in a row ([why],
    the driver's {!Relay_client.Gave_up}).
    Before calling the source lost, ask it once: a source that still
    answers is alive — serving the stream, shedding, or refusing it
    because it restarted without the stream or no longer knows this
    mirror's key. The link then parks until the next rescan, a refusal
    counting [links_refused]; promoting would leave two writable
    owners. Only an unreachable source counts [sources_lost] and, with
    [promote_on_loss], is promoted away. *)
let budget_spent (t : t) (ls : link_state) why =
  let stream = ls.l_stream in
  if not (stopped t) then
    match with_source t (Client.describe ~stream) with
    | _ | (exception Client.Busy _) ->
      Log.info (fun m ->
          m "stream %s: %s; source answers, link parked" stream why)
    | exception e when refused e || listening t ->
      Counters.incr t.counters "links_refused";
      Log.info (fun m ->
          m "stream %s: %s; source refuses: %s" stream why
            (Printexc.to_string e))
    | exception _ ->
      Counters.incr t.counters "sources_lost";
      Log.warn (fun m -> m "stream %s: %s; source lost" stream why);
      if t.cfg.promote_on_loss && not (stopped t) then promote_local t ls

(** The loop guard: [Some counter] when the stream described by [meta]
    gets no link here, [counter] naming why. *)
let guarded (t : t) meta =
  let origin, _ = Proto.tag meta ~relay_id:"" in
  if origin = "" then
    (* source predates origin tags: replicating without arbitration
       could amplify cycles, so refuse *)
    Some "untagged_skipped"
  else if String.equal origin (Relay.relay_id t.relay) then
    (* our own stream coming back around a cycle *)
    Some "loops_skipped"
  else None

(** One link attempt: DESCRIBE the source, claim the stream on the
    local relay, subscribe from the offset the claim returned and hand
    the connection to the relay. A [busy] source is waited out on this
    connection ({!Relay_client.busy_wait}): the wait spends no budget,
    since overload is not an outage and must never make the mirror
    call a live source lost. [false]: the loop guard skipped the stream
    (its tag changed since the scan, which counts it next). *)
let handshake (t : t) (ls : link_state) retry : bool =
  let stream = ls.l_stream in
  let client = connect_source t ~compress:t.cfg.compress in
  match
    let meta, schema = Client.describe client ~stream in
    if guarded t meta <> None then None
    else
      (* §17: the replica shard adopts the source's [trace=] context; it
         is per-publisher state, not stream metadata to persist *)
      let trace, meta = Proto.split_trace meta in
      let rep =
        { Relay.stream; meta; schema; trace
        ; on_frame =
            (function
            | `Message -> Counters.incr t.counters "frames_replicated"
            | `Descriptor -> Counters.incr t.counters "descriptors_replicated")
        ; on_close =
            (fun ~local ->
              Mutex.protect t.mu (fun () ->
                  ls.l_closed <- Some local;
                  Condition.broadcast t.closed)) }
      in
      let from =
        match Relay.claim_replica t.relay rep with
        | Ok from -> from
        | Error msg -> raise (Parked msg)
      in
      (match
         Relay_client.busy_wait retry ~what:("stream " ^ stream)
           ~on_busy:(fun () -> Counters.incr t.counters "busy_backoffs")
           (fun () -> Client.subscribe_from client ~stream ~from)
       with
      | Some start, _, _ when from >= 0 && start > from ->
        (* source retention outran this replica: the gap is gone *)
        Counters.incr t.counters "resume_gap_clamped"
      | _ -> ());
      Some rep
  with
  | exception e ->
    Client.close client;
    raise e
  | None ->
    Client.close client;
    false
  | Some rep -> (
    Mutex.protect t.mu (fun () ->
        ls.l_replica <- Some rep;
        ls.l_closed <- None);
    match
      Relay.adopt_replica t.relay rep (Client.fd client)
        ~mac:(Client.mac client) ~comp:(Client.compressed client)
    with
    | Error msg ->
      Client.close client;
      raise (Parked msg)
    | Ok () ->
      (* a {!stop} racing the hand-over may have missed the link *)
      if stopped t then Relay.unlink_replica t.relay rep;
      true)

(** Block until the relay closes the live link; [true] when the local
    relay closed it for its own shutdown. *)
let await_close (t : t) (ls : link_state) : bool =
  Mutex.protect t.mu @@ fun () ->
  while ls.l_closed = None do
    Condition.wait t.closed t.mu
  done;
  ls.l_replica <- None;
  ls.l_closed = Some true

(** Per-stream link thread, driven by {!Relay_client.reconnect}: a
    link the relay closed relinks from the local tail, unless the
    mirror or the relay is stopping. Failed handshakes back off with
    jitter; a spent budget goes to {!budget_spent}, and an established
    link starts the next outage with a fresh one. A refusal or a local
    failure parks the link until the next rescan. *)
let link_thread (t : t) (ls : link_state) =
  let stream = ls.l_stream in
  let stopped () = stopped t in
  let retry =
    Relay_client.retry ~attempts:t.cfg.max_attempts ~base_s:t.cfg.base_delay_s
      ~max_s:t.cfg.max_delay_s ~seed:(Int64.of_int (Hashtbl.hash stream))
      ~stopped ~sleep:(Relay_client.nap ~stopped)
  in
  let rec go () =
    match
      Relay_client.reconnect ~final:refused retry ~what:"link handshake"
        (fun () -> handshake t ls retry)
    with
    | false -> ()
    | true ->
      Counters.incr t.counters "links_established";
      Log.info (fun m -> m "stream %s: replicating" stream);
      if not (await_close t ls || stopped ()) then begin
        Counters.incr t.counters "reconnects";
        Log.info (fun m -> m "stream %s: link closed; relinking" stream);
        go ()
      end
    | exception Relay_client.Gave_up why -> budget_spent t ls why
    | exception Relay_client.Stopped -> ()
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

(** DESCRIBE [stream] on the manager's connection and apply the loop
    guard: only a stream that passes gets a link thread. *)
let linkable (t : t) src (stream : string) : bool =
  match Client.describe src ~stream with
  | exception Client.Error msg when Proto.is_refusal msg ->
    Counters.incr t.counters "links_refused";
    Log.info (fun m -> m "stream %s: refused: %s" stream msg);
    false
  | meta, _ -> (
    match guarded t meta with
    | Some counter ->
      Counters.incr t.counters counter;
      false
    | None -> true)

(** One manager pass: LIST the source, DESCRIBE and link every wanted
    stream that has no live (or retired-by-promote) link, and refresh
    the per-stream replication-lag gauges. *)
let scan (t : t) =
  with_source t @@ fun src ->
  let streams = Client.list_streams src |> List.filter (wanted t.cfg) in
  let needs_link stream =
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.links stream with
        | None -> true
        | Some ls -> ls.l_done && not ls.l_promoted)
  in
  List.iter
    (fun stream ->
      if needs_link stream && linkable t src stream then
        Mutex.protect t.mu (fun () ->
            if not (stopped t) then begin
              let ls =
                { l_stream = stream; l_thread = None; l_replica = None
                ; l_closed = None; l_done = false; l_promoted = false }
              in
              Hashtbl.replace t.links stream ls;
              Counters.incr t.counters "streams_linked";
              ls.l_thread <-
                Some (Thread.create (fun () -> link_thread t ls) ())
            end))
    streams;
  (* replication lag: source tail minus local tail, per linked stream.
     The gauge names follow the <group>.<subject>.<metric> convention,
     so /metrics renders them as
     omf_..._mirror_lag_frames{stream="..."}. *)
  match Client.stats src with
  | exception _ -> ()
  | src_stats ->
    List.iter
      (fun stream ->
        match
          ( List.assoc_opt (Printf.sprintf "store.%s.tail" stream) src_stats
          , Relay.store_tail t.relay ~stream )
        with
        | Some s, Some l ->
          Counters.set t.counters
            (Printf.sprintf "mirror.%s.lag_frames" stream)
            (max 0 (s - l))
        | _ -> ())
      streams

let manager_loop (t : t) =
  while not (stopped t) do
    (try scan t with _ -> Counters.incr t.counters "scan_failures");
    Relay_client.nap ~stopped:(fun () -> stopped t) t.cfg.rescan_s
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start (relay : Relay.t) (cfg : config) : t =
  let t =
    { relay; cfg; counters = Counters.create (); mu = Mutex.create ()
    ; closed = Condition.create (); links = Hashtbl.create 8; manager = None
    ; stopped = false }
  in
  t.manager <- Some (Thread.create (fun () -> manager_loop t) ());
  Log.info (fun m ->
      m "mirroring %s:%d into relay %s%s%s" cfg.source_host cfg.source_port
        (Relay.relay_id relay)
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
    let links =
      Mutex.protect t.mu (fun () ->
          Hashtbl.fold (fun _ ls acc -> (ls, ls.l_replica) :: acc) t.links [])
    in
    (* closing a live link wakes its thread, which then exits *)
    List.iter
      (fun (_, rep) -> Option.iter (Relay.unlink_replica t.relay) rep)
      links;
    List.iter (fun (ls, _) -> Option.iter Thread.join ls.l_thread) links
  end
