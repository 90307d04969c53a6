(** omfbench: publish -> deliver through a real relayd, end to end and
    layer by layer (see README.md in this directory).

    One run drives one workload ({!Spec}) through a relayd child process
    from this process: the main domain publishes, one subscriber domain
    receives, and a control connection reads relay STATS between the
    timed windows. A pass is:

    - set-up, repeated: spawn relayd, HELLO/ADVERTISE/PUBLISH,
      [Xml2wire.register_schema] on both ends, SUBSCRIBE, learn the
      descriptor, [Convert.compile]; all but the last relay are killed;
    - a closed-loop warm-up, then twenty closed-loop trials (as fast as
      the block-policy relay accepts; loss-free);
    - an open-loop phase of seeded Poisson arrivals at the workload's
      fixed rate, each event timed from its due time to the subscriber
      having decoded it;
    - for store-backed workloads: SIGINT, restart on the same store, and
      a [from=0] replay of every stored event.

    Every delivery is checked for loss, duplication and order; decoded
    values are compared with the seed's reference for every 64th event
    (every event when traced). [--trace 1] runs an untraced pass and a
    traced pass of half the time each and reports per-layer metrics:
    the bench's own timings around each layer's public entry points plus
    relayd's stage spans and STATS. The last line of standard output is
    one JSON object: correct, attempted, failed, metrics. *)

open Omf_machine
open Omf_pbio
module Relay = Omf_relay.Relay
module Client = Relay.Client
module Catalog = Omf_xml2wire.Catalog
module X2W = Omf_xml2wire.Xml2wire
module Link = Omf_transport.Link
module Macframe = Omf_transport.Macframe
module Compress = Omf_compress.Compress

(* CLOCK_MONOTONIC, as relayd's span timestamps, in nanoseconds *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

external set_timerslack_ns : int -> unit = "omfbench_set_timerslack_ns"

let stream = "bench"
let auth_secret = "omfbench-shared-secret"

(** Payload variants per run; event [seq] carries variant [seq mod 61]
    so the every-64th value check visits all of them. *)
let n_variants = 61

(** Closed-loop trials per pass. *)
let n_trials = 20

(* ------------------------------------------------------------------ *)
(* Metrics: names and units, as the result line carries them          *)
(* ------------------------------------------------------------------ *)

(* gated: steady from run to run on a machine whose speed drifts *)
let end_to_end =
  [ ("setup_s", "s"); ("client_alloc_B_per_event", "B")
  ; ("wire_bytes_per_event", "B"); ("relay_rss_mb", "MiB") ]

(* measured on every run but not gated: on a shared 2-vCPU machine they
   move 10-50% between runs with the machine's speed (README.md) *)
let timings =
  [ ("sat_eps", "events/s"); ("lat_p50_us", "us")
  ; ("relay_cpu_us_per_event", "us"); ("client_cpu_us_per_event", "us") ]

(* client layers the traced pass times, in publish -> deliver order *)
let layer_names =
  [| "pbio.bind"; "pbio.encode"; "transport.send"; "transport.recv"
   ; "pbio.convert"; "pbio.load"; "compress.compress"; "compress.decompress"
   ; "macframe.seal"; "macframe.open" |]

let l_bind = 0
let l_encode = 1
let l_send = 2
let l_recv = 3
let l_convert = 4
let l_load = 5
let l_compress = 6
let l_decompress = 7
let l_seal = 8
let l_open = 9

(* layers whose allocation is reported next to their time *)
let alloc_layers = [ l_bind; l_encode; l_send; l_convert; l_load ]

let per_layer =
  [ ("xml2wire.register_us", "us"); ("pbio.plan_compile_us", "us")
  ; ("pbio.plan_ops", "count") ]
  @ List.concat_map
      (fun l ->
        let name = layer_names.(l) in
        if l = l_recv || l >= l_compress then [ (name ^ "_us", "us") ]
        else
          (name ^ "_us", "us")
          :: (if List.mem l alloc_layers then [ (name ^ "_alloc_B", "B") ] else []))
      (List.init (Array.length layer_names) Fun.id)
  @ [ ("compress.ratio", "ratio"); ("relay.publish_admit_p50_us", "us")
    ; ("relay.publish_admit_p99_us", "us"); ("relay.fanout_enqueue_p50_us", "us")
    ; ("relay.flush_p50_us", "us"); ("relay.deliver_p50_us", "us")
    ; ("relay.events_per_flush", "count"); ("relay.frames_dropped", "count")
    ; ("relay.publish_busy", "count"); ("relayd.cpu_busy_frac", "ratio")
    ; ("store.append_p50_us", "us"); ("store.bytes_per_event", "B")
    ; ("store.replay_chunks", "count"); ("store.segments", "count")
    ; ("store.replay_eps", "events/s"); ("store.recover_s", "s")
    ; ("loadgen.behind_pct", "%"); ("loadgen.cpu_busy_frac", "ratio")
    ; ("closure.ratio", "ratio"); ("trace.sat_eps_overhead_pct", "%")
    ; ("trace.lat_p50_overhead_us", "us") ]
  @ List.map (fun (k, unit) -> ("untraced." ^ k, unit)) timings

(* ------------------------------------------------------------------ *)
(* Layer probes (traced pass only)                                     *)
(* ------------------------------------------------------------------ *)

type tally = { mutable calls : int; mutable ns : int; mutable words : float }

(** One domain's layer tallies plus its spans, one per layer call. *)
type probe = {
  tally : tally array;
  sp_layer : int array;
  sp_seq : int array;
  sp_start : int array;
  sp_dur : int array;
  mutable sp_len : int;
}

let span_cap = 60_000

let probe () =
  { tally = Array.init (Array.length layer_names) (fun _ -> { calls = 0; ns = 0; words = 0.0 })
  ; sp_layer = Array.make span_cap 0; sp_seq = Array.make span_cap 0
  ; sp_start = Array.make span_cap 0; sp_dur = Array.make span_cap 0; sp_len = 0 }

(* words this domain has allocated, minor and major *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* what one [alloc_words] call itself allocates *)
let probe_words =
  let a = alloc_words () in
  let b = alloc_words () in
  b -. a

let note p layer ~seq ~t0 ~t1 ~w0 ~w1 =
  let t = p.tally.(layer) in
  t.calls <- t.calls + 1;
  t.ns <- t.ns + (t1 - t0);
  t.words <- t.words +. (w1 -. w0 -. probe_words);
  let i = p.sp_len in
  if i < span_cap then begin
    p.sp_layer.(i) <- layer;
    p.sp_seq.(i) <- seq;
    p.sp_start.(i) <- t0;
    p.sp_dur.(i) <- t1 - t0;
    p.sp_len <- i + 1
  end

let timed p layer seq f =
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = alloc_words () in
  note p layer ~seq ~t0 ~t1 ~w0 ~w1;
  r

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

type fails = {
  mutable lost : int;
  mutable reordered : int;  (** duplicated or out of order *)
  mutable mismatched : int;  (** decoded value differs from the reference *)
  mutable errors : string list;
      (** refusals, broken links, events that never arrived *)
}

let fails () = { lost = 0; reordered = 0; mismatched = 0; errors = [] }
let failed f = f.lost + f.reordered + f.mismatched + List.length f.errors

(* ------------------------------------------------------------------ *)
(* Receiving end                                                       *)
(* ------------------------------------------------------------------ *)

(** The open-loop window: events [lo, hi), their due times and
    latencies, and the subscriber's allocation counter as it finished
    the first and the last of them. *)
type window = {
  lo : int;
  hi : int;
  due : int array;
  lat : int array;
  mutable words_lo : float;
  mutable words_hi : float;
}

let window ~lo ~due =
  let n = Array.length due in
  { lo; hi = lo + n; due; lat = Array.make n 0; words_lo = 0.0; words_hi = 0.0 }

let no_window = { (window ~lo:max_int ~due:[||]) with hi = max_int }

type rx = {
  spec : Spec.t;
  link : Link.t;
  pbio : Pbio.Receiver.t;
  mem : Memory.t;
  expect : Value.t array;  (** variants as the receiver's ABI decodes them *)
  check_every : int;  (** a power of two *)
  rprobe : probe option;
  mutable expected : int;
  f : fails;
}

let frame kind (body : bytes) =
  let b = Bytes.create (1 + Bytes.length body) in
  Bytes.set b 0 kind;
  Bytes.blit body 0 b 1 (Bytes.length body);
  b

let check rx seq v =
  if seq = rx.expected then rx.expected <- seq + 1
  else if seq > rx.expected then begin
    rx.f.lost <- rx.f.lost + (seq - rx.expected);
    rx.expected <- seq + 1
  end
  else rx.f.reordered <- rx.f.reordered + 1;
  if seq land (rx.check_every - 1) = 0
     && not (Value.equal v (rx.spec.set_seq rx.expect.(seq mod n_variants) seq))
  then rx.f.mismatched <- rx.f.mismatched + 1

(** Read frames until the next event is decoded and checked: [Some
    (seq, decoded_at_ns)], or [None] once the link closes. Layer calls
    are tallied when [in_window seq]. *)
let rec next_event rx ~in_window =
  let w0 = if rx.rprobe = None then 0.0 else alloc_words () in
  let t0 = now_ns () in
  match Link.recv rx.link with
  | None -> None
  | Some fr -> (
    let t1 = now_ns () in
    let w1 = if rx.rprobe = None then 0.0 else alloc_words () in
    if Bytes.length fr = 0 then failwith "empty frame";
    let body () = Bytes.sub fr 1 (Bytes.length fr - 1) in
    match Bytes.get fr 0 with
    | 'D' ->
      ignore (Pbio.Receiver.learn rx.pbio (Bytes.to_string (body ())));
      next_event rx ~in_window
    | 'M' -> (
      let body = body () in
      match rx.rprobe with
      | None ->
        let fmt, addr = Pbio.Receiver.receive rx.pbio body in
        let v = Native.load rx.mem fmt addr in
        let t = now_ns () in
        Memory.reset rx.mem;
        let seq = rx.spec.get_seq v in
        check rx seq v;
        Some (seq, t)
      | Some p ->
        let w2 = alloc_words () in
        let t2 = now_ns () in
        let fmt, addr = Pbio.Receiver.receive rx.pbio body in
        let t3 = now_ns () in
        let w3 = alloc_words () in
        let v = Native.load rx.mem fmt addr in
        let t4 = now_ns () in
        let w4 = alloc_words () in
        Memory.reset rx.mem;
        let seq = rx.spec.get_seq v in
        check rx seq v;
        if in_window seq then begin
          note p l_recv ~seq ~t0 ~t1 ~w0 ~w1;
          note p l_convert ~seq ~t0:t2 ~t1:t3 ~w0:w2 ~w1:w3;
          note p l_load ~seq ~t0:t3 ~t1:t4 ~w0:w3 ~w1:w4
        end;
        Some (seq, t4))
    | c -> failwith (Printf.sprintf "unexpected frame kind %C" c))

(** What the subscriber domain shares with the publisher. *)
type shared = {
  next : int Atomic.t;  (** next in-order seq = events delivered so far *)
  last_ns : int Atomic.t;  (** when the latest event was decoded *)
  win : window Atomic.t;
  stopping : bool Atomic.t;  (** the relay is being stopped on purpose *)
  finished : bool Atomic.t;
  error : string option Atomic.t;  (** why the subscriber stopped early *)
}

let subscriber rx (sh : shared) () =
  let in_window seq =
    let w = Atomic.get sh.win in
    seq >= w.lo && seq < w.hi
  in
  let rec go () =
    match next_event rx ~in_window with
    | None -> ()
    | Some (seq, t) ->
      let w = Atomic.get sh.win in
      if seq >= w.lo && seq < w.hi then begin
        w.lat.(seq - w.lo) <- t - w.due.(seq - w.lo);
        if seq = w.lo then w.words_lo <- alloc_words ();
        if seq = w.hi - 1 then w.words_hi <- alloc_words ()
      end;
      Atomic.set sh.last_ns t;
      Atomic.set sh.next rx.expected;
      go ()
  in
  (try go ()
   with e ->
     if not (Atomic.get sh.stopping) then
       Atomic.set sh.error (Some ("subscriber: " ^ Printexc.to_string e)));
  Atomic.set sh.finished true

(* ------------------------------------------------------------------ *)
(* Sending end                                                         *)
(* ------------------------------------------------------------------ *)

type tx = {
  tspec : Spec.t;
  tlink : Link.t;
  tmem : Memory.t;
  fmt : Format.t;
  variants : Value.t array;
  tprobe : probe option;
  off_path : (Compress.scratch * Macframe.state * Macframe.state) option;
      (** secure workloads, traced: replay each frame through the codec
          and the sealer off the wire path to time them *)
  mutable seq : int;
  mutable raw_bytes : int;
  mutable comp_bytes : int;
}

let send_event tx ~record =
  let seq = tx.seq in
  let v = tx.tspec.set_seq tx.variants.(seq mod n_variants) seq in
  Memory.reset tx.tmem;
  (match tx.tprobe with
  | Some p when record ->
    let addr = timed p l_bind seq (fun () -> Native.store tx.tmem tx.fmt v) in
    let fr =
      timed p l_encode seq (fun () -> frame 'M' (Pbio.message tx.tmem tx.fmt addr))
    in
    timed p l_send seq (fun () -> Link.send tx.tlink fr);
    Option.iter
      (fun (ws, seal_st, open_st) ->
        let blk = timed p l_compress seq (fun () -> Compress.compress ~scratch:ws fr) in
        ignore (timed p l_decompress seq (fun () -> Compress.decompress blk));
        let sealed = timed p l_seal seq (fun () -> Macframe.seal_next seal_st blk) in
        ignore (timed p l_open seq (fun () -> Macframe.open_next open_st sealed));
        tx.raw_bytes <- tx.raw_bytes + Bytes.length fr;
        tx.comp_bytes <- tx.comp_bytes + Bytes.length blk)
      tx.off_path
  | _ ->
    let addr = Native.store tx.tmem tx.fmt v in
    Link.send tx.tlink (frame 'M' (Pbio.message tx.tmem tx.fmt addr)));
  tx.seq <- seq + 1

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

type conf = {
  relayd : string;
  dir : string;  (** this workload's output directory *)
  n_setups : int;
  seconds : float;
  traced : bool;
  seed : int;
}

(** What one set-up yields: a relay with both data connections
    attached, ready for events, and how long getting there took. *)
type rig = {
  relay : Proc.t;
  ctl : Client.t;
  pub_client : Client.t;
  sub_client : Client.t;
  tx : tx;
  rx : rx;
  setup_s : float;
  register_us : float list;
  compile_us : float;
  plan_ops : int;
}

let relay_args (spec : Spec.t) conf ~store_dir =
  (if spec.store then [ "--store"; store_dir ] else [])
  @ (if spec.secure then [ "--auth-key"; "bench=" ^ auth_secret ] else [])
  @ if conf.traced then [ "--trace-sample"; "1.0"; "--trace-buffer"; "16384" ] else []

let connect (spec : Spec.t) port =
  Client.connect ~port
    ?auth:(if spec.secure then Some ("bench", auth_secret) else None)
    ~compress:spec.secure ()

let register abi schema =
  let cat = Catalog.create abi in
  let t0 = now_ns () in
  ignore (X2W.register_schema cat schema);
  (cat, float_of_int (now_ns () - t0) /. 1e3)

(* the variant pool as the receiver decodes it: bound and read back
   under the receiving ABI *)
let expected_values (spec : Spec.t) variants =
  let cat, _ = register spec.recv_abi spec.schema in
  let fmt = Option.get (Catalog.find_format cat spec.format) in
  let mem = Memory.create spec.recv_abi in
  Array.map
    (fun v ->
      Memory.reset mem;
      Native.load mem fmt (Native.store mem fmt v))
    variants

let set_up (spec : Spec.t) conf ~variants ~expect ~store_dir ~log =
  let t0 = now_ns () in
  let relay =
    Proc.spawn ~relayd:conf.relayd ~log ~metrics:conf.traced
      (relay_args spec conf ~store_dir)
  in
  let ctl = connect spec relay.port in
  let pub_client = connect spec relay.port in
  Client.advertise pub_client ~stream ~schema:spec.schema;
  let pub_link =
    if spec.store then snd (Client.publish_acked pub_client ~stream)
    else Client.publish pub_client ~stream
  in
  let pub_cat, pub_reg_us = register spec.send_abi spec.schema in
  let fmt = Option.get (Catalog.find_format pub_cat spec.format) in
  Link.send pub_link (frame 'D' (Bytes.of_string (Format_codec.encode fmt)));
  let sub_client = connect spec relay.port in
  let schema, sub_link = Client.subscribe sub_client ~stream in
  let sub_cat, sub_reg_us = register spec.recv_abi schema in
  let mem = Memory.create spec.recv_abi in
  let pbio = Pbio.Receiver.create (Catalog.registry sub_cat) mem in
  let wire =
    match Link.recv sub_link with
    | Some fr when Bytes.length fr > 0 && Bytes.get fr 0 = 'D' ->
      Pbio.Receiver.learn pbio (Bytes.sub_string fr 1 (Bytes.length fr - 1))
    | _ -> failwith "subscriber: expected the stream's descriptor first"
  in
  let native = Option.get (Catalog.find_format sub_cat spec.format) in
  let c0 = now_ns () in
  let plan = Convert.compile ~wire ~native in
  let compile_us = float_of_int (now_ns () - c0) /. 1e3 in
  let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
  let tx =
    { tspec = spec; tlink = pub_link; tmem = Memory.create spec.send_abi; fmt
    ; variants; tprobe = (if conf.traced then Some (probe ()) else None)
    ; off_path =
        (if conf.traced && spec.secure then
           Some
             ( Compress.scratch ()
             , Macframe.state ~key:auth_secret
             , Macframe.state ~key:auth_secret )
         else None)
    ; seq = 0; raw_bytes = 0; comp_bytes = 0 }
  in
  let rx =
    { spec; link = sub_link; pbio; mem; expect
    ; check_every = (if conf.traced then 1 else 64)
    ; rprobe = (if conf.traced then Some (probe ()) else None)
    ; expected = 0; f = fails () }
  in
  { relay; ctl; pub_client; sub_client; tx; rx; setup_s
  ; register_us = [ pub_reg_us; sub_reg_us ]; compile_us
  ; plan_ops = Convert.op_count plan }

let close_clients s =
  List.iter
    (fun c -> try Client.close c with _ -> ())
    [ s.ctl; s.pub_client; s.sub_client ]

let stat stats k = float_of_int (Option.value ~default:0 (List.assoc_opt k stats))

(** One closed-loop trial: events, events/s, CPU microseconds per event
    of relayd and of this process. *)
type trial = { events : int; rate : float; relay_us : float; client_us : float }

(** Metrics of one pass, by name; absent means "no such phase". *)
type result = {
  m : (string, float) Hashtbl.t;
  lat : int array;  (** open-loop latencies, sorted *)
  attempted : int;
  f : fails;
}

let wait_for sh ~target ~what (f : fails) =
  let deadline = Unix.gettimeofday () +. 30.0 in
  while
    Atomic.get sh.next < target
    && (not (Atomic.get sh.finished))
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.0002
  done;
  let got = Atomic.get sh.next in
  if got < target then
    f.errors <-
      Printf.sprintf "%s: %d of %d events never arrived" what (target - got) target
      :: f.errors

(* read ['k' durable] frames off the acked publisher link until the
   relay reports [target] events durable; returns when that was *)
let wait_durable link ~target =
  let rec go () =
    match Link.recv link with
    | Some fr when Bytes.length fr > 1 && Bytes.get fr 0 = 'k' ->
      let durable = int_of_string (Bytes.sub_string fr 1 (Bytes.length fr - 1)) in
      if durable >= target then now_ns () else go ()
    | Some fr when Bytes.length fr > 0 -> failwith (Printf.sprintf "publisher: unexpected %C frame" (Bytes.get fr 0))
    | _ -> failwith "publisher: relay closed the link before acking"
  in
  go ()

(* relayd's recorded stage spans that started at or after [since] (us):
   the raw export, and a percentile lookup per stage *)
let relay_spans_after (port : int) ~(since : int) =
  let text = Omf_httpd.Http.get ~port ~path:"/trace/spans" ~timeout_s:10.0 () in
  let by_stage = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match
        ( Option.bind (Json.member "name" ev) Json.to_str
        , Option.bind (Json.member "ts" ev) Json.to_num
        , Option.bind (Json.member "dur" ev) Json.to_num )
      with
      | Some name, Some ts, Some dur when int_of_float ts >= since ->
        let l = Option.value ~default:[] (Hashtbl.find_opt by_stage name) in
        Hashtbl.replace by_stage name (int_of_float dur :: l)
      | _ -> ())
    (Json.to_list
       (Option.value ~default:Json.Null (Json.member "traceEvents" (Json.parse text))));
  (text, fun stage p ->
    match Hashtbl.find_opt by_stage stage with
    | None -> 0.0
    | Some l -> float_of_int (Qstats.rank (Qstats.sorted_ints (Array.of_list l)) p))

let client_spans_json (probes : (int * probe) list) =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun (tid, p) ->
      for i = 0 to p.sp_len - 1 do
        (* Chrome trace timestamps are microseconds *)
        if not !first then Buffer.add_char b ',';
        first := false;
        Printf.bprintf b
          "{\"name\":\"%s\",\"cat\":\"omfbench\",\"ph\":\"X\",\"ts\":%.3f,\
           \"dur\":%.3f,\"pid\":1000,\"tid\":%d,\"args\":{\"seq\":%d}}"
          layer_names.(p.sp_layer.(i))
          (float_of_int p.sp_start.(i) /. 1e3)
          (float_of_int p.sp_dur.(i) /. 1e3)
          tid p.sp_seq.(i)
      done)
    probes;
  Buffer.add_string b "]}";
  Buffer.contents b

(** Restart relayd on the populated store and read every stored event
    back with a [from=0] subscriber, checking each as a live delivery;
    returns the deliveries attempted. *)
let replay (spec : Spec.t) conf ~(rx : rx) ~store_dir ~log ~published set =
  let t_spawn = now_ns () in
  let relay =
    Proc.spawn ~relayd:conf.relayd ~log
      (relay_args spec { conf with traced = false } ~store_dir)
  in
  let ctl = connect spec relay.port in
  let client = connect spec relay.port in
  let _, schema, link = Client.subscribe_from client ~stream ~from:0 in
  let cat, _ = register spec.recv_abi schema in
  let mem = Memory.create spec.recv_abi in
  let rrx =
    { rx with link; pbio = Pbio.Receiver.create (Catalog.registry cat) mem; mem
    ; rprobe = None; expected = 0 }
  in
  let st0 = Client.stats ctl in
  let nothing _ = false in
  let first = ref 0 and last = ref 0 in
  (match next_event rrx ~in_window:nothing with
  | Some (_, t) -> first := t; last := t
  | None -> ());
  set "store.recover_s" (float_of_int (!first - t_spawn) /. 1e9);
  let rec drain () =
    if rrx.expected < published then
      match next_event rrx ~in_window:nothing with
      | Some (_, t) -> last := t; drain ()
      | None -> ()
  in
  drain ();
  if rrx.expected < published then
    rx.f.errors <-
      Printf.sprintf "replay: %d of %d events missing"
        (published - rrx.expected) published
      :: rx.f.errors;
  let st1 = Client.stats ctl in
  set "store.replay_eps"
    (float_of_int (published - 1) /. (float_of_int (!last - !first) /. 1e9));
  set "store.replay_chunks"
    (stat st1 "store_replay_chunks" -. stat st0 "store_replay_chunks");
  List.iter (fun c -> try Client.close c with _ -> ()) [ client; ctl ];
  Proc.stop relay;
  published

let run_pass (spec : Spec.t) conf : result =
  let m = Hashtbl.create 64 in
  let set k v = Hashtbl.replace m k v in
  let tag = if conf.traced then "traced" else "plain" in
  let rng = Random.State.make [| conf.seed; Hashtbl.hash spec.name |] in
  let variants = Array.init n_variants (fun _ -> spec.variant rng) in
  let expect = expected_values spec variants in
  let store_dir i = Filename.concat conf.dir (Printf.sprintf "%s-store-%d" tag i) in
  let log i = Filename.concat conf.dir (Printf.sprintf "%s-relayd-%d.log" tag i) in
  (* set-up, repeated; the last rig is the one measured *)
  let rigs =
    List.init conf.n_setups (fun i ->
        let s =
          set_up spec conf ~variants ~expect ~store_dir:(store_dir i)
            ~log:(log i)
        in
        if i < conf.n_setups - 1 then begin
          close_clients s;
          Proc.kill s.relay;
          rm_rf (store_dir i)
        end;
        s)
  in
  let s = List.nth rigs (conf.n_setups - 1) in
  set "setup_s" (Qstats.median (List.map (fun s -> s.setup_s) rigs));
  set "xml2wire.register_us"
    (Qstats.median (List.concat_map (fun s -> s.register_us) rigs));
  set "pbio.plan_compile_us"
    (Qstats.median (List.map (fun s -> s.compile_us) rigs));
  set "pbio.plan_ops" (float_of_int s.plan_ops);
  let tx = s.tx and rx = s.rx in
  let f = rx.f in
  let sh =
    { next = Atomic.make 0; last_ns = Atomic.make 0; win = Atomic.make no_window
    ; stopping = Atomic.make false; finished = Atomic.make false
    ; error = Atomic.make None }
  in
  let sub = Domain.spawn (subscriber rx sh) in
  let secs = conf.seconds in
  (* A closed-loop phase runs for a share of the run. A store-backed
     workload publishes fixed event counts instead, so the log it
     replays has the same size on every run: 95k events at 20 s, which
     stays inside relayd's first 64 MiB segment while --seconds is at
     most 25 (replay from sealed segments is a different, far slower
     path; see README.md). *)
  let phase ~share ~events_per_s =
    if spec.store then `Events (int_of_float (events_per_s *. secs))
    else `Secs (share *. secs)
  in
  let open_share = if spec.store then 0.3 else 0.45 in
  let closed_loop stop =
    let lo = tx.seq in
    let t0 = now_ns () in
    let more () =
      match stop with
      | `Secs d -> now_ns () - t0 < int_of_float (d *. 1e9)
      | `Events n -> tx.seq - lo < n
    in
    while more () do
      for _ = 1 to 32 do send_event tx ~record:false done
    done;
    wait_for sh ~target:tx.seq ~what:"closed loop" f;
    (tx.seq - lo, float_of_int (Atomic.get sh.last_ns - t0) /. 1e9)
  in
  (* acked publishers: every event so far must become durable; the wait
     is bounded by relayd's fsync interval and is not timed *)
  let check_durable () =
    if spec.store then ignore (wait_durable tx.tlink ~target:tx.seq)
  in
  (* warm-up: caches, socket buffers, GC heap, the lazy plan compile *)
  ignore (closed_loop (phase ~share:0.1 ~events_per_s:250.0));
  check_durable ();
  (* closed loop: back-to-back trials, each with its own CPU readings *)
  let own_cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let st0 = Client.stats s.ctl in
  let wall0 = now_ns () in
  let trials =
    List.init n_trials (fun _ ->
        let r0 = Proc.cpu_s s.relay and c0 = own_cpu () in
        let n, dt =
          closed_loop
            (phase
               ~share:(0.45 /. float_of_int n_trials)
               ~events_per_s:(3000.0 /. float_of_int n_trials))
        in
        let n' = float_of_int n in
        { events = n; rate = n' /. dt
        ; relay_us = (Proc.cpu_s s.relay -. r0) *. 1e6 /. n'
        ; client_us = (own_cpu () -. c0) *. 1e6 /. n' })
  in
  let wall = float_of_int (now_ns () - wall0) /. 1e9 in
  let st1 = Client.stats s.ctl in
  check_durable ();
  let n_closed = List.fold_left (fun a t -> a + t.events) 0 trials in
  let per_event x = x /. float_of_int n_closed in
  let delta k = stat st1 k -. stat st0 k in
  write_file
    (Filename.concat conf.dir (tag ^ "-trials.tsv"))
    (String.concat ""
       (List.map
          (fun t -> Printf.sprintf "%d\t%.1f\t%.4f\t%.4f\n" t.events t.rate t.relay_us t.client_us)
          trials));
  let rates = List.map (fun t -> t.rate) trials in
  List.iteri (fun i r -> set (Printf.sprintf "sat_eps.trial%d" i) r) rates;
  set "sat_eps" (Qstats.median rates);
  (* CPU microseconds over all trials *)
  let cpu_us g =
    List.fold_left (fun a t -> a +. (g t *. float_of_int t.events)) 0.0 trials
  in
  let relay_us = cpu_us (fun t -> t.relay_us) and client_us = cpu_us (fun t -> t.client_us) in
  set "relay_cpu_us_per_event" (per_event relay_us);
  set "client_cpu_us_per_event" (per_event client_us);
  set "wire_bytes_per_event" (per_event (delta "bytes_out"));
  set "relayd.cpu_busy_frac" (relay_us /. 1e6 /. wall);
  set "loadgen.cpu_busy_frac" (client_us /. 1e6 /. wall);
  if conf.traced then
    set "relay.events_per_flush"
      (delta "events_relayed" /. Float.max 1.0 (delta "hist.stage_us.flush.count"));
  (* open loop: seeded Poisson arrivals at the workload's rate *)
  let n_open = max 2 (int_of_float (spec.open_rate *. open_share *. secs)) in
  let t0 = now_ns () + 2_000_000 in
  let due = Array.make n_open 0 in
  let at = ref 0.0 in
  for i = 0 to n_open - 1 do
    at := !at -. (Float.log (1.0 -. Random.State.float rng 1.0) /. spec.open_rate *. 1e9);
    due.(i) <- t0 + int_of_float !at
  done;
  let lo = tx.seq in
  let win = window ~lo ~due in
  Atomic.set sh.win win;
  let behind = ref 0 in
  let words0 = alloc_words () in
  for i = 0 to n_open - 1 do
    let wait = due.(i) - now_ns () in
    if wait > 0 then Unix.sleepf (float_of_int wait *. 1e-9);
    if now_ns () - due.(i) > 1_000_000 then incr behind;
    send_event tx ~record:true
  done;
  let pub_words = alloc_words () -. words0 in
  wait_for sh ~target:win.hi ~what:"open loop" f;
  check_durable ();
  (* both ends' allocation per event: the publisher's over every send,
     the subscriber's between decoding the first and the last event *)
  set "client_alloc_B_per_event"
    (8.0
    *. ((pub_words /. float_of_int n_open)
       +. ((win.words_hi -. win.words_lo) /. float_of_int (n_open - 1))));
  write_file
    (Filename.concat conf.dir (tag ^ "-open-loop.tsv"))
    (String.concat ""
       (List.init n_open (fun i ->
            Printf.sprintf "%d\t%.3f\t%.3f\n" (lo + i)
              (float_of_int (due.(i) - t0) /. 1e3)
              (float_of_int win.lat.(i) /. 1e3))));
  let lat = Qstats.sorted_ints win.lat in
  set "lat_p50_us" (float_of_int (Qstats.rank lat 50.0) /. 1e3);
  set "loadgen.behind_pct" (100.0 *. float_of_int !behind /. float_of_int n_open);
  if conf.traced then begin
    let port = Option.get s.relay.metrics_port in
    let raw, stage_p = relay_spans_after port ~since:(t0 / 1000) in
    write_file (Filename.concat conf.dir "relay_spans.json") raw;
    set "relay.publish_admit_p50_us" (stage_p "publish_admit" 50.0);
    set "relay.publish_admit_p99_us" (stage_p "publish_admit" 99.0);
    set "relay.fanout_enqueue_p50_us" (stage_p "fanout_enqueue" 50.0);
    set "relay.flush_p50_us" (stage_p "flush" 50.0);
    set "relay.deliver_p50_us" (stage_p "deliver" 50.0);
    if spec.store then set "store.append_p50_us" (stage_p "store_append" 50.0)
  end;
  let st_end = Client.stats s.ctl in
  set "relay.frames_dropped" (stat st_end "frames_dropped");
  set "relay.publish_busy" (stat st_end "publish_busy");
  set "relay_rss_mb" (Proc.peak_rss_mb s.relay);
  if spec.store then begin
    let k x = stat st_end (Printf.sprintf "store.%s.%s" stream x) in
    set "store.bytes_per_event" (k "bytes" /. Float.max 1.0 (k "tail"));
    set "store.segments" (k "segments")
  end;
  (* the subscriber domain ends when the draining relay closes its link *)
  Atomic.set sh.stopping true;
  Proc.stop s.relay;
  Domain.join sub;
  Option.iter (fun e -> f.errors <- e :: f.errors) (Atomic.get sh.error);
  close_clients s;
  let published = tx.seq in
  let replayed =
    if spec.store then
      replay spec conf ~rx ~store_dir:(store_dir (conf.n_setups - 1))
        ~log:(log conf.n_setups) ~published set
    else 0
  in
  rm_rf (store_dir (conf.n_setups - 1));
  (match (tx.tprobe, rx.rprobe) with
  | Some pp, Some rp ->
    write_file
      (Filename.concat conf.dir "client_spans.json")
      (client_spans_json [ (1, pp); (2, rp) ]);
    (* publisher and subscriber time disjoint layers: sum the tallies *)
    Array.iteri
      (fun l name ->
        let a = pp.tally.(l) and b = rp.tally.(l) in
        let calls = float_of_int (max 1 (a.calls + b.calls)) in
        set (name ^ "_us") (float_of_int (a.ns + b.ns) /. 1e3 /. calls);
        if List.mem l alloc_layers then
          set (name ^ "_alloc_B") ((a.words +. b.words) *. 8.0 /. calls))
      layer_names;
    set "compress.ratio"
      (if tx.comp_bytes > 0 then float_of_int tx.raw_bytes /. float_of_int tx.comp_bytes else 0.0);
    let get k = Option.value ~default:0.0 (Hashtbl.find_opt m k) in
    set "closure.ratio"
      ((get "pbio.bind_us" +. get "pbio.encode_us" +. get "transport.send_us"
       +. get "relay.publish_admit_p50_us" +. get "relay.flush_p50_us"
       +. get "pbio.convert_us" +. get "pbio.load_us")
      /. Float.max 1.0 (get "lat_p50_us"))
  | _ -> ());
  { m; lat; attempted = published + replayed; f }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let value (r : result) k = Option.value ~default:0.0 (Hashtbl.find_opt r.m k)

let print_metrics title (r : result) names =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (k, unit) -> Printf.printf "    %-32s %14.4f %s\n" k (value r k) unit)
    names

let print_diagnostics (spec : Spec.t) (r : result) ~attempted (f : fails) =
  let failed = failed f in
  let n = Array.length r.lat in
  (* a percentile is shown once ten samples lie beyond it *)
  let pct p min_n =
    if n >= min_n then
      Printf.sprintf "%.1f us" (float_of_int (Qstats.rank r.lat p) /. 1e3)
    else Printf.sprintf "n/a (needs %d samples)" min_n
  in
  Printf.printf "  diagnostics (not gated)\n";
  Printf.printf "    sat_eps trials: %s events/s\n"
    (String.concat " "
       (List.init n_trials (fun i ->
            Printf.sprintf "%.0f" (value r (Printf.sprintf "sat_eps.trial%d" i)))));
  Printf.printf "    lat_p99_us   %s over %d samples\n" (pct 99.0 1000) n;
  Printf.printf "    lat_p999_us  %s over %d samples\n" (pct 99.9 10_000) n;
  Printf.printf "    loadgen behind schedule >1ms: %.3f%% of %d sends\n"
    (value r "loadgen.behind_pct") n;
  if spec.store then
    Printf.printf "    replay_eps %.1f events/s, recover_s %.4f s\n"
      (value r "store.replay_eps") (value r "store.recover_s");
  Printf.printf
    "    fail_ratio   %.6f (%d of %d deliveries: lost %d, reordered %d, \
     mismatched %d, errors %d)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted f.lost f.reordered f.mismatched (List.length f.errors);
  List.iter (fun e -> Printf.printf "    error: %s\n" e) f.errors

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct)
       ; ("attempted", Json.Num (float_of_int attempted))
       ; ("failed", Json.Num (float_of_int failed))
       ; ( "metrics"
         , Json.Obj
             (List.map
                (fun (k, v, unit) ->
                  (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                metrics) ) ])

(** Run [spec] once; returns whether every delivery was correct and the
    result line. *)
let run_workload (spec : Spec.t) ~relayd ~out ~seed ~seconds ~trace ~setups =
  let dir = Filename.concat out spec.name in
  rm_rf dir;
  mkdir_p dir;
  let conf = { relayd; dir; n_setups = setups; seconds; traced = false; seed } in
  Printf.printf "omfbench: %s, seed %d, %.1f s%s\n%!" spec.name seed seconds
    (if trace then ", traced" else "");
  let passes =
    if trace then
      let half = { conf with seconds = seconds /. 2.0 } in
      [ run_pass spec half; run_pass spec { half with traced = true } ]
    else [ run_pass spec conf ]
  in
  let attempted = List.fold_left (fun a (r : result) -> a + r.attempted) 0 passes in
  let sum g = List.fold_left (fun a (r : result) -> a + g r.f) 0 passes in
  let all_fails =
    { lost = sum (fun f -> f.lost); reordered = sum (fun f -> f.reordered)
    ; mismatched = sum (fun f -> f.mismatched)
    ; errors = List.concat_map (fun (r : result) -> r.f.errors) passes }
  in
  let r = List.nth passes (List.length passes - 1) in
  let names =
    match passes with
    | [ plain; traced ] ->
      let set k v = Hashtbl.replace traced.m k v in
      List.iter (fun (k, _) -> set ("untraced." ^ k) (value plain k)) timings;
      let sat = value plain "sat_eps" in
      set "trace.sat_eps_overhead_pct" (100.0 *. (sat -. value traced "sat_eps") /. sat);
      set "trace.lat_p50_overhead_us" (value traced "lat_p50_us" -. value plain "lat_p50_us");
      print_metrics "end to end, untraced half" plain (end_to_end @ timings);
      print_metrics "per layer, traced half" traced per_layer;
      Printf.printf "  closure: layers sum to %.2f of lat_p50_us %.1f us\n"
        (value traced "closure.ratio") (value traced "lat_p50_us");
      per_layer
    | _ ->
      print_metrics "end to end (gated)" r end_to_end;
      print_metrics "end to end (not gated: these follow the machine's speed)" r timings;
      end_to_end
  in
  print_diagnostics spec r ~attempted all_fails;
  let failed = failed all_fails in
  let correct = failed = 0 in
  ( correct
  , result_line ~correct ~attempted ~failed
      (List.map (fun (k, unit) -> (k, value r k, unit)) names) )

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let main workload seed seconds trace quick relayd out =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bail _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  at_exit Proc.kill_all;
  (* the publisher (this thread) must launch open-loop events on time *)
  set_timerslack_ns 1;
  (* fewer minor collections: each one stops both domains *)
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144 };
  if not (Sys.file_exists relayd) then begin
    Printf.eprintf "omfbench: no relayd at %s (build bin/relayd.exe first)\n" relayd;
    exit 2
  end;
  (* setup_s is the median of the set-ups of a pass *)
  let run spec ~seconds ~trace ~setups =
    run_workload spec ~relayd ~out ~seed ~seconds ~trace ~setups
  in
  match (quick, Option.map Spec.find workload) with
  | true, _ ->
    let ok =
      List.for_all
        (fun spec -> fst (run spec ~seconds:1.5 ~trace:true ~setups:2))
        Spec.all
    in
    exit (if ok then 0 else 1)
  | false, Some (Some spec) ->
    let correct, line = run spec ~seconds ~trace:(trace = 1) ~setups:15 in
    print_endline line;
    exit (if correct then 0 else 1)
  | false, Some None ->
    Printf.eprintf "omfbench: unknown workload (want one of: %s)\n"
      (String.concat ", " (List.map (fun (s : Spec.t) -> s.name) Spec.all));
    exit 2
  | false, None ->
    prerr_endline "omfbench: --workload NAME or --quick is required";
    exit 2

open Cmdliner

let () =
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload to run: paper-a-live, science-16k, durable-replay or \
                 secure-compressed.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for payload contents and open-loop arrival gaps.")
  in
  let seconds =
    Arg.(value & opt float 20.0 & info [ "seconds" ] ~docv:"S"
           ~doc:"Measured time of the run (set-up and the store replay \
                 come on top).")
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: an untraced and a traced pass of half the time each, \
                 reporting per-layer metrics instead of end-to-end ones.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Every workload, traced, 1.5 s each with two set-ups per \
                 pass (the smoke check).")
  in
  let relayd =
    Arg.(value & opt string "_build/default/bin/relayd.exe"
         & info [ "relayd" ] ~docv:"PATH" ~doc:"The relayd executable to drive.")
  in
  let out =
    Arg.(value & opt string ".omfbench" & info [ "out" ] ~docv:"DIR"
           ~doc:"Output directory: relay logs, stores, trace files.")
  in
  let info =
    Cmd.info "omfbench" ~doc:"publish -> deliver through a real relayd, end to \
                             end and layer by layer"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(const main $ workload $ seed $ seconds $ trace $ quick $ relayd
                $ out)))
