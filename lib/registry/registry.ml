(** Versioned, content-addressed schema registry (doc/REGISTRY.md).

    Subjects map to immutable version chains; each version is keyed by
    the SHA-256 fingerprint of its canonicalized descriptor, making
    registration idempotent by content and letting receivers bind
    conversion plans by fingerprint. Registration is gated by a
    structural diff ({!Omf_xml2wire.Compat}) against the subject's
    latest version, per compatibility mode. State persists on the
    durable {!Omf_store} log and is recovered at open. *)

module Log = Omf_util.Log

module Schema = Omf_xschema.Schema
module Compat = Omf_xml2wire.Compat
module Sha256 = Omf_util.Sha256
module Counters = Omf_util.Counters
module Clock = Omf_util.Clock
module Store = Omf_store.Store

(* ------------------------------------------------------------------ *)
(* Compatibility modes                                                  *)
(* ------------------------------------------------------------------ *)

type compat_mode = No_check | Backward | Forward | Full

let compat_mode_of_string = function
  | "none" -> Ok No_check
  | "backward" -> Ok Backward
  | "forward" -> Ok Forward
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown compat mode %S (none|backward|forward|full)" s)

let compat_mode_to_string = function
  | No_check -> "none"
  | Backward -> "backward"
  | Forward -> "forward"
  | Full -> "full"

(* ------------------------------------------------------------------ *)
(* Versions and fingerprints                                            *)
(* ------------------------------------------------------------------ *)

type version = {
  subject : string;
  version : int;
  fingerprint : string;
  schema : string;
}

let fingerprint_of_schema (s : Schema.t) : string =
  Sha256.hex (Sha256.digest (Schema.canonical s))

let fingerprint_of (text : string) : string =
  fingerprint_of_schema (Schema.of_string text)

exception Incompatible of {
  subject : string;
  mode : compat_mode;
  reports : Compat.report list;
}

exception Invalid_subject of string

(* A record stores the subject as its first line ([encode_version],
   [encode_mode]), so a subject must be one non-empty line to read back *)
let check_subject subject =
  if String.equal subject "" || String.contains subject '\n' then
    raise (Invalid_subject subject)

let diff_lines (reports : Compat.report list) : string list =
  List.concat_map
    (fun (r : Compat.report) ->
      List.map
        (fun (c : Compat.change) ->
          Printf.sprintf "%s %s.%s: %s"
            (Compat.severity_label c.Compat.severity)
            r.Compat.format_name c.Compat.field c.Compat.description)
        r.Compat.changes)
    reports

(** The gate: which diffs must be all-[Safe] for [mode]? Backward
    means a reader of the old version keeps working on new data
    ([diff old -> new]); forward means a reader of the new version can
    consume old data ([diff new -> old]); full is both. *)
let gate_reports ~(mode : compat_mode) ~(prior : Schema.t) ~(next : Schema.t) :
    Compat.report list =
  let offending ~old_schema ~new_schema =
    List.filter
      (fun (r : Compat.report) ->
        Compat.severity_rank r.Compat.verdict > Compat.severity_rank Compat.Safe)
      (Compat.diff_schemas ~old_schema ~new_schema)
  in
  match mode with
  | No_check -> []
  | Backward -> offending ~old_schema:prior ~new_schema:next
  | Forward -> offending ~old_schema:next ~new_schema:prior
  | Full ->
    offending ~old_schema:prior ~new_schema:next
    @ offending ~old_schema:next ~new_schema:prior

(* ------------------------------------------------------------------ *)
(* The registry                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  mutex : Mutex.t;
  default_mode : compat_mode;
  chains : (string, version list) Hashtbl.t;  (** newest first *)
  by_fp : (string, version) Hashtbl.t;  (** first registration wins *)
  modes : (string, compat_mode) Hashtbl.t;
  counters : Counters.t;
  store : Store.t option;
  mutable closed : bool;
}

(** Persistence record formats (kind byte + text body on the CRC-framed
    store): ['V' "subject\nversion\nfingerprint\n" schema] appends a
    version and ['C' "subject\nmode"] records a mode override. Any other
    kind, such as the ['D'] records of older logs, recovers as junk. *)

let encode_version (v : version) : Bytes.t =
  Bytes.of_string
    (Printf.sprintf "V%s\n%d\n%s\n%s" v.subject v.version v.fingerprint
       v.schema)

let encode_mode subject mode : Bytes.t =
  Bytes.of_string (Printf.sprintf "C%s\n%s" subject (compat_mode_to_string mode))

let split_line (s : string) (from : int) : (string * int) option =
  match String.index_from_opt s from '\n' with
  | None -> None
  | Some i -> Some (String.sub s from (i - from), i + 1)

let decode_record (frame : Bytes.t) :
    [ `Version of version
    | `Mode of string * compat_mode
    | `Junk of string ] =
  if Bytes.length frame < 1 then `Junk "empty record"
  else
    let body = Bytes.sub_string frame 1 (Bytes.length frame - 1) in
    match Bytes.get frame 0 with
    | 'V' -> (
      match split_line body 0 with
      | None -> `Junk "version record: missing subject line"
      | Some (subject, p) -> (
        match split_line body p with
        | None -> `Junk "version record: missing version line"
        | Some (vstr, p) -> (
          match (int_of_string_opt vstr, split_line body p) with
          | Some n, Some (fingerprint, p) ->
            `Version
              { subject; version = n; fingerprint
              ; schema = String.sub body p (String.length body - p) }
          | _ -> `Junk "version record: malformed header")))
    | 'C' -> (
      match split_line body 0 with
      | None -> `Junk "mode record: missing subject line"
      | Some (subject, p) -> (
        match
          compat_mode_of_string (String.sub body p (String.length body - p))
        with
        | Ok m -> `Mode (subject, m)
        | Error e -> `Junk e))
    | k -> `Junk (Printf.sprintf "unknown record kind %C" k)

(* table updates shared by registration and recovery; caller holds the
   mutex *)
let admit t (v : version) =
  Hashtbl.replace t.chains v.subject
    (v :: (Option.value ~default:[] (Hashtbl.find_opt t.chains v.subject)));
  if not (Hashtbl.mem t.by_fp v.fingerprint) then
    Hashtbl.replace t.by_fp v.fingerprint v

let recover t (st : Store.t) =
  Store.iter_range_slices st 0 max_int (fun _off frame ->
      match decode_record (Omf_util.Slice.to_bytes frame) with
      | `Version v ->
        admit t v;
        Counters.incr t.counters "recovered_versions"
      | `Mode (subject, m) ->
        Hashtbl.replace t.modes subject m;
        Counters.incr t.counters "recovered_modes"
      | `Junk reason ->
        (* CRC passed but the body is not ours: skip, loudly *)
        Counters.incr t.counters "recovered_junk";
        Log.warn (fun m -> m "registry recovery skipped a record: %s" reason))

let create ?store ?(mode = Backward) () : t =
  let t =
    { mutex = Mutex.create (); default_mode = mode
    ; chains = Hashtbl.create 16; by_fp = Hashtbl.create 32
    ; modes = Hashtbl.create 8; counters = Counters.create ()
    ; store = Option.map (fun cfg -> Store.open_stream cfg "registry") store
    ; closed = false }
  in
  Option.iter (recover t) t.store;
  t

let close t =
  Mutex.protect t.mutex (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Option.iter Store.close t.store
      end)

let persist t (frame : Bytes.t) =
  match t.store with
  | None -> ()
  | Some st ->
    ignore (Store.append st frame);
    (* registry writes are rare and precious: always make them durable
       before acknowledging *)
    ignore (Store.sync st)

let locked t f = Mutex.protect t.mutex f

let mode t ~subject =
  locked t (fun () ->
      Option.value ~default:t.default_mode (Hashtbl.find_opt t.modes subject))

let set_mode t ~subject m =
  check_subject subject;
  locked t (fun () ->
      Hashtbl.replace t.modes subject m;
      persist t (encode_mode subject m))

let subjects t =
  locked t (fun () ->
      List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) t.chains []))

let versions t subject =
  locked t (fun () ->
      List.rev (Option.value ~default:[] (Hashtbl.find_opt t.chains subject)))

let find t ~subject n =
  locked t (fun () ->
      match Hashtbl.find_opt t.chains subject with
      | None -> None
      | Some chain -> List.find_opt (fun v -> v.version = n) chain)

let latest t subject =
  locked t (fun () ->
      match Hashtbl.find_opt t.chains subject with
      | None | Some [] -> None
      | Some (v :: _) -> Some v)

let by_fingerprint t fp =
  let r = locked t (fun () -> Hashtbl.find_opt t.by_fp fp) in
  Counters.incr t.counters
    (match r with Some _ -> "fingerprint_hits" | None -> "fingerprint_misses");
  r

let stats t = Counters.dump t.counters

let register t ~subject text : version =
  check_subject subject;
  (* parse and fingerprint outside the lock: pure work *)
  let schema = Schema.of_string text in
  let fp = fingerprint_of_schema schema in
  let outcome =
    locked t (fun () ->
        let chain = Option.value ~default:[] (Hashtbl.find_opt t.chains subject) in
        match List.find_opt (fun v -> String.equal v.fingerprint fp) chain with
        | Some existing ->
          Counters.incr t.counters "register_idempotent";
          `Existing existing
        | None -> (
          let m =
            Option.value ~default:t.default_mode (Hashtbl.find_opt t.modes subject)
          in
          match chain with
          | [] -> `Admit (m, None)
          | prior :: _ -> `Admit (m, Some prior)))
  in
  match outcome with
  | `Existing v -> v
  | `Admit (m, prior) -> (
    (* diff outside the lock too — parsing the prior document is the
       expensive part; a racing register of the same subject is caught
       by re-checking the chain head under the lock below *)
    (match prior with
    | None -> ()
    | Some p ->
      let reports = gate_reports ~mode:m ~prior:(Schema.of_string p.schema) ~next:schema in
      if reports <> [] then begin
        Counters.incr t.counters "register_rejected";
        Log.info (fun f ->
            f "subject %s: rejected by %s gate (%d report(s))" subject
              (compat_mode_to_string m) (List.length reports));
        raise (Incompatible { subject; mode = m; reports })
      end);
    locked t (fun () ->
        let chain = Option.value ~default:[] (Hashtbl.find_opt t.chains subject) in
        match List.find_opt (fun v -> String.equal v.fingerprint fp) chain with
        | Some existing ->
          Counters.incr t.counters "register_idempotent";
          existing
        | None ->
          (match (prior, chain) with
          | None, _ :: _ | Some _, [] ->
            (* the chain changed while we were diffing: keep it simple
               and refuse; the caller retries against the new head *)
            Counters.incr t.counters "register_races";
            failwith "registry: subject changed during registration; retry"
          | Some p, head :: _ when not (String.equal p.fingerprint head.fingerprint)
            ->
            Counters.incr t.counters "register_races";
            failwith "registry: subject changed during registration; retry"
          | _ -> ());
          let v =
            { subject; version = List.length chain + 1; fingerprint = fp
            ; schema = text }
          in
          persist t (encode_version v);
          admit t v;
          Counters.incr t.counters "registrations";
          Log.info (fun f ->
              f "subject %s: version %d registered (%s)" subject v.version
                (String.sub fp 0 12));
          v))

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

module Server = struct
  module Conn = Omf_reactor.Conn
  module Shell = Omf_reactor.Server
  module Http = Omf_httpd.Http

  type server = {
    shell : Shell.t;
    port : int;
    metrics_port : int option;
  }

  let reply_ok conn body =
    Conn.send conn (Bytes.of_string ("o" ^ body))

  let reply_err conn msg = Conn.send conn (Bytes.of_string ("e" ^ msg))

  let spec_of_string = function
    | "latest" | "" -> Some `Latest
    | s -> Option.map (fun n -> `N n) (int_of_string_opt s)

  let get_spec registry ~subject = function
    | `Latest -> latest registry subject
    | `N n -> find registry ~subject n

  let handle_frame (registry : t) (conn : Conn.t) (frame : Bytes.t) =
    Counters.incr registry.counters "frames_in";
    if Bytes.length frame < 1 then Conn.doom conn "empty frame"
    else
      let body = Bytes.sub_string frame 1 (Bytes.length frame - 1) in
      match Bytes.get frame 0 with
      | 'R' -> (
        match split_line body 0 with
        | None -> reply_err conn "register: missing subject line"
        | Some (subject, p) -> (
          let text = String.sub body p (String.length body - p) in
          match register registry ~subject text with
          | v ->
            reply_ok conn
              (Printf.sprintf "version=%d\nfingerprint=%s" v.version
                 v.fingerprint)
          | exception Incompatible { mode = m; reports; _ } ->
            reply_err conn
              (String.concat "\n"
                 (Printf.sprintf "incompatible with %s gate"
                    (compat_mode_to_string m)
                 :: diff_lines reports))
          | exception Schema.Schema_error m ->
            reply_err conn (Printf.sprintf "invalid schema: %s" m)
          | exception Invalid_subject s ->
            reply_err conn (Printf.sprintf "invalid subject %S" s)
          | exception Failure m -> reply_err conn m))
      | 'V' -> (
        match split_line body 0 with
        | None -> reply_err conn "get: missing subject line"
        | Some (subject, p) -> (
          match spec_of_string (String.sub body p (String.length body - p)) with
          | None -> reply_err conn "get: bad version spec"
          | Some spec -> (
            match get_spec registry ~subject spec with
            | Some v ->
              reply_ok conn
                (Printf.sprintf "version=%d\nfingerprint=%s\n%s" v.version
                   v.fingerprint v.schema)
            | None -> reply_err conn "not found")))
      | 'F' -> (
        match by_fingerprint registry body with
        | Some v ->
          reply_ok conn
            (Printf.sprintf "subject=%s\nversion=%d\n%s" v.subject v.version
               v.schema)
        | None -> reply_err conn "not found")
      | 'L' ->
        let lines =
          List.map
            (fun subject ->
              Printf.sprintf "%s %d %s" subject
                (List.length (versions registry subject))
                (compat_mode_to_string (mode registry ~subject)))
            (subjects registry)
        in
        reply_ok conn (String.concat "\n" lines)
      | 't' -> reply_ok conn (Counters.to_text (Counters.dump registry.counters))
      | k -> Conn.doom conn (Printf.sprintf "unknown request kind %C" k)

  let frame_connection (registry : t) : Shell.accept =
   fun loop fd ~on_close ->
    Counters.incr registry.counters "connections";
    Conn.attach loop fd
      ~on_input:(fun conn frame ->
        handle_frame registry conn (Omf_util.Slice.to_bytes frame))
      ~on_close ()

  (* the frame and metrics listeners share one loop *)
  let start ?(host = "127.0.0.1") ~port ?metrics_port (registry : t) : server =
    let metrics =
      Option.map
        (fun p ->
          ( host,
            p,
            Http.connection
              (Http.metrics_handler
                 [ ("registry", fun () -> Counters.dump registry.counters) ]) ))
        metrics_port
    in
    let shell =
      Shell.start
        ((host, port, frame_connection registry) :: Option.to_list metrics)
    in
    (* the ports follow the listeners: frames, then metrics *)
    let ports = Shell.ports shell in
    { shell; port = List.hd ports; metrics_port = List.nth_opt ports 1 }

  let port s = s.port
  let metrics_port s = s.metrics_port
  let shutdown s = Shell.shutdown s.shell
end

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = {
    link : Omf_transport.Link.t;
    mutex : Mutex.t;
  }

  exception Server_unavailable of string
  exception Rejected of string

  let connect ?host ~port () : t =
    match
      Omf_transport.Tcp.connect ?host ~port ~connect_timeout_s:5.0
        ~io_timeout_s:5.0 ()
    with
    | link -> { link; mutex = Mutex.create () }
    | exception Omf_transport.Tcp.Tcp_error m -> raise (Server_unavailable m)

  let close t = Omf_transport.Link.close t.link

  (* one request, one reply: ['o' body] -> Ok body, ['e' msg] -> Error *)
  let rpc t (frame : string) : (string, string) result =
    Mutex.protect t.mutex (fun () ->
        match
          Omf_transport.Link.send t.link (Bytes.of_string frame);
          Omf_transport.Link.recv t.link
        with
        | Some reply when Bytes.length reply >= 1 -> (
          let body = Bytes.sub_string reply 1 (Bytes.length reply - 1) in
          match Bytes.get reply 0 with
          | 'o' -> Ok body
          | 'e' -> Error body
          | k ->
            raise
              (Server_unavailable (Printf.sprintf "unexpected reply kind %C" k)))
        | Some _ | None -> raise (Server_unavailable "connection closed")
        | exception e -> (
          match Omf_transport.Tcp.failure_message e with
          | Some m -> raise (Server_unavailable m)
          | None -> raise e))

  (* "k=v" line parsing for reply headers *)
  let header_str key line =
    let prefix = key ^ "=" in
    if String.length line > String.length prefix
       && String.equal (String.sub line 0 (String.length prefix)) prefix
    then
      Some
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix))
    else None

  let header_int key line = Option.bind (header_str key line) int_of_string_opt

  let register t ~subject text : int * string =
    match rpc t (Printf.sprintf "R%s\n%s" subject text) with
    | Error msg -> raise (Rejected msg)
    | Ok body -> (
      match split_line body 0 with
      | Some (l1, p) -> (
        match
          ( header_int "version" l1,
            header_str "fingerprint"
              (String.sub body p (String.length body - p)) )
        with
        | Some v, Some fp -> (v, fp)
        | _ -> raise (Server_unavailable "register: malformed reply"))
      | None -> raise (Server_unavailable "register: malformed reply"))

  let spec_string = function `Latest -> "latest" | `N n -> string_of_int n

  let get t ~subject spec : version option =
    match rpc t (Printf.sprintf "V%s\n%s" subject (spec_string spec)) with
    | Error _ -> None
    | Ok body -> (
      match split_line body 0 with
      | None -> None
      | Some (l1, p) -> (
        match split_line body p with
        | None -> None
        | Some (l2, p) -> (
          match (header_int "version" l1, header_str "fingerprint" l2) with
          | Some n, Some fp ->
            Some
              { subject; version = n; fingerprint = fp
              ; schema = String.sub body p (String.length body - p) }
          | _ -> None)))

  let by_fingerprint t fp : version option =
    match rpc t ("F" ^ fp) with
    | Error _ -> None
    | Ok body -> (
      match split_line body 0 with
      | None -> None
      | Some (l1, p) -> (
        match split_line body p with
        | None -> None
        | Some (l2, p) -> (
          match (header_str "subject" l1, header_int "version" l2) with
          | Some subject, Some n ->
            Some
              { subject; version = n; fingerprint = fp
              ; schema = String.sub body p (String.length body - p) }
          | _ -> None)))

  let subjects t : (string * int * string) list =
    match rpc t "L" with
    | Error _ -> []
    | Ok "" -> []
    | Ok body ->
      (* "subject versions mode": a subject may hold spaces, so the
         line splits at its last two *)
      List.filter_map
        (fun line ->
          let sep = String.rindex_from_opt line in
          match sep (String.length line - 1) ' ' with
          | None -> None
          | Some j -> (
            match sep (j - 1) ' ' with
            | None -> None
            | Some i ->
              let m = String.sub line (j + 1) (String.length line - j - 1) in
              Option.map
                (fun n -> (String.sub line 0 i, n, m))
                (int_of_string_opt (String.sub line (i + 1) (j - i - 1)))))
        (String.split_on_char '\n' body)

  let stats t : (string * int) list =
    match rpc t "t" with
    | Error _ -> []
    | Ok body -> Counters.of_text body
end

(* ------------------------------------------------------------------ *)
(* Caching resolver                                                     *)
(* ------------------------------------------------------------------ *)

module Resolver = struct
  type t = {
    client : Client.t;
    mutex : Mutex.t;
    pos : (string, version) Hashtbl.t;  (** "subject@spec" -> version *)
    neg : (string, int) Hashtbl.t;  (** key -> expiry, {!Clock.now_us} *)
    neg_ttl_s : float;
    counters : Counters.t;
  }

  let create ?(neg_ttl_s = 1.0) client : t =
    { client; mutex = Mutex.create (); pos = Hashtbl.create 16
    ; neg = Hashtbl.create 8; neg_ttl_s; counters = Counters.create () }

  let key subject spec = subject ^ "@" ^ Client.spec_string spec

  (* Both caches are read and written under the lock. A miss is
     negatively cached for [neg_ttl_s]; an outage is counted but not
     cached, so the next call tries the server again once it returns.
     A fetched version is cached under every key it answers. *)
  let resolve t ~subject spec : version option =
    let k = key subject spec in
    match
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.pos k with
          | Some v -> `Hit v
          | None -> (
            match Hashtbl.find_opt t.neg k with
            | Some expiry when Clock.now_us () < expiry -> `Neg
            | Some _ ->
              Hashtbl.remove t.neg k;
              `Miss
            | None -> `Miss))
    with
    | `Hit v ->
      Counters.incr t.counters "hits";
      Some v
    | `Neg ->
      Counters.incr t.counters "negative_hits";
      None
    | `Miss -> (
      Counters.incr t.counters "misses";
      match Client.get t.client ~subject spec with
      | Some v ->
        Mutex.protect t.mutex (fun () ->
            Hashtbl.replace t.pos k v;
            Hashtbl.replace t.pos (key v.subject (`N v.version)) v);
        Some v
      | None ->
        Mutex.protect t.mutex (fun () ->
            Hashtbl.replace t.neg k
              (Clock.now_us () + Float.to_int (t.neg_ttl_s *. 1e6)));
        None
      | exception Client.Server_unavailable _ ->
        Counters.incr t.counters "errors";
        None)

  let stats t = Counters.dump t.counters
end
