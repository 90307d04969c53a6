(** The raw client of the relay: one connection, HELLO, and the typed
    control exchanges of PROTOCOLS.md §11–18. It carries frames and
    knows nothing of their formats, so the relay's own mirror links
    with it and nothing of the paper's binding stack. The Pbio-typed
    sessions built on it are {!Relay_session}; they and the mirror's
    links share the retry driver at the end of this file. The contract
    of every entry point is in relay_client.mli. *)

open Omf_transport
module Proto = Relay_proto
module Prng = Omf_util.Prng

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  exception Error of string

  exception Busy of { retry_ms : int }

  type t = {
    link : Link.t;
    comp : Tcp.comp_totals option;
    fd : Unix.file_descr;
    mac : Macframe.state option;
        (** the link's frame modes, kept so a relay can adopt the
            socket mid-stream ({!Relay.adopt_replica}) *)
  }

  (* every transport-level failure ({!Tcp.failure_message}) surfaces as
     Client.Error with a readable message; raw Unix_error / Tcp_error
     never escape *)
  let reraise (context : string) = function
    | Error m -> raise (Error m)
    | e -> (
      match Tcp.failure_message e with
      | Some m -> raise (Error (context ^ ": " ^ m))
      | None -> raise e)

  let transient = function
    | Error _ -> true
    | e -> Tcp.failure_message e <> None

  let rpc (t : t) (req : Proto.request) : Proto.reply =
    match
      Link.send t.link (Proto.encode_request req);
      Link.recv t.link
    with
    | None -> raise (Error "relay closed the connection")
    | Some r -> (
      match Proto.decode_reply r with
      | Ok reply -> reply
      | Error _ -> raise (Error "malformed reply"))
    | exception e -> reraise "relay rpc" e

  (* the OK body of [req]: error and busy replies raise *)
  let call (t : t) (req : Proto.request) : string =
    match rpc t req with
    | Proto.Ok body -> body
    | Proto.Err msg -> raise (Error msg)
    | Proto.Busy ms -> raise (Busy { retry_ms = (if ms > 0 then ms else 250) })
    | Proto.Ack _ -> raise (Error "malformed reply")

  let decoded (r : ('a, string) result) : 'a =
    match r with Ok v -> v | Error msg -> raise (Error ("relay reply: " ^ msg))

  (* how long HELLO may take when the caller sets no [io_timeout_s]: a
     relay that accepts no more still completes TCP handshakes from its
     backlog, and would never answer *)
  let hello_timeout_s = 5.0

  let connect ?(host = "127.0.0.1") ~port ?(creds = []) ?auth
      ?(compress = false) ?connect_timeout_s ?io_timeout_s () : t =
    let fd =
      try
        Tcp.dial ~host ~port ?connect_timeout_s
          ~io_timeout_s:(Option.value io_timeout_s ~default:hello_timeout_s)
          ()
      with e -> reraise (Printf.sprintf "relay connect %s:%d" host port) e
    in
    (* HELLO runs on the plain link; the negotiated modes then frame
       every later byte on the same socket *)
    let plain = Tcp.link_of_fd fd in
    try
      let hello_creds =
        (if compress then [ ("comp", "lz") ] else [])
        @
        match auth with
        | None -> creds
        | Some (key_id, _) ->
          creds @ [ ("auth", "hmac"); ("key-id", key_id) ]
      in
      let granted =
        Proto.decode_banner
          (call { link = plain; comp = None; fd; mac = None }
             (Proto.Hello hello_creds))
      in
      (* the relay must have granted the auth mode we asked for *)
      if auth <> None && not granted.Proto.mac then
        raise (Error "relay did not negotiate authenticated framing");
      (* the caller's deadlines, none by default, from here on *)
      if io_timeout_s = None then Tcp.set_io_timeout fd 0.0;
      let mac = Option.map (fun (_, key) -> Macframe.state ~key) auth in
      let comp =
        if compress && granted.Proto.comp then
          Some { Tcp.raw_bytes = 0; wire_bytes = 0 }
        else None
      in
      { link = Tcp.link_of_fd ?mac ?comp fd; comp; fd; mac }
    with e ->
      (* no fd leak on handshake failure *)
      (try Link.close plain with _ -> ());
      reraise "relay handshake" e

  let compressed (t : t) : bool = t.comp <> None
  let fd (t : t) = t.fd
  let mac (t : t) = t.mac

  let comp_totals (t : t) : (int * int) option =
    match t.comp with
    | None -> None
    | Some c -> Some (c.Tcp.raw_bytes, c.wire_bytes)

  let advertise ?(meta = []) (t : t) ~(stream : string) ~(schema : string) :
      unit =
    ignore (call t (Proto.Advertise { stream; meta; schema }))

  let stats (t : t) : (string * int) list =
    Proto.decode_stats (call t Proto.Stats)

  (* plain and acked PUBLISH: the typed watermark reply *)
  let publish_with ?trace ~acks (t : t) stream =
    decoded
      (Proto.decode_published (call t (Proto.Publish { stream; acks; trace })))

  let publish ?trace (t : t) ~(stream : string) : Link.t =
    ignore (publish_with ?trace ~acks:false t stream);
    t.link

  (* SUBSCRIBE and DESCRIBE: the typed schema reply *)
  let schema_reply ~offset ~meta (t : t) (req : Proto.request) =
    decoded (Proto.decode_schema_reply ~offset ~meta (call t req))

  let subscribe (t : t) ~(stream : string) : string * Link.t =
    (call t (Proto.Subscribe { stream; from = None }), t.link)

  let publish_acked (t : t) ~(stream : string) : int option * Link.t =
    (publish_with ~acks:true t stream, t.link)

  let subscribe_from (t : t) ~(stream : string) ~(from : int) :
      int option * string * Link.t =
    let r =
      schema_reply ~offset:true ~meta:false t
        (Proto.Subscribe { stream; from = Some from })
    in
    (r.Proto.offset, r.Proto.schema, t.link)

  let list_streams (t : t) : string list =
    Proto.decode_list (call t Proto.List)

  let describe (t : t) ~(stream : string) : (string * string) list * string =
    let r = schema_reply ~offset:false ~meta:true t (Proto.Describe stream) in
    (r.Proto.meta, r.Proto.schema)

  let promote (t : t) ~(stream : string) : int =
    decoded (Proto.decode_epoch (call t (Proto.Promote stream)))

  let close (t : t) = try Link.close t.link with _ -> ()
end

(* PUBLISH, acked or not and with a trace context, for the sessions of
   {!Relay_session}: the watermark reply and the link to send on *)
let publish_link ?trace ~acks (c : Client.t) ~stream =
  (Client.publish_with ?trace ~acks c stream, c.Client.link)

(* ------------------------------------------------------------------ *)
(* Retry driver                                                         *)
(* ------------------------------------------------------------------ *)

module Log = Omf_util.Log

exception Gave_up of string
exception Stopped

let nap ~stopped s =
  let until = Omf_util.Clock.now_us () + int_of_float (s *. 1e6) in
  let rec go () =
    let left = until - Omf_util.Clock.now_us () in
    if left > 0 && not (stopped ()) then begin
      Thread.delay (Float.min 0.05 (float_of_int left /. 1e6));
      go ()
    end
  in
  go ()

type retry = {
  attempts : int;  (** dials per outage *)
  base_s : float;  (** first backoff step *)
  max_s : float;  (** backoff cap *)
  rng : Prng.t;  (** the jitter of every wait, backoff and busy alike *)
  stopped : unit -> bool;
  sleep : float -> unit;
}

let retry ~attempts ~base_s ~max_s ~seed ~stopped ~sleep =
  { attempts; base_s; max_s; rng = Prng.create ~seed (); stopped; sleep }

(* step k (0-based) is min(cap, base * 2^k) scaled into [0.5, 1.0):
   full jitter halves thundering-herd resubscription after a relay
   restart, and the seeded generator keeps runs deterministic *)
let backoff_delay ~base_s ~max_s rng k =
  Float.min max_s (base_s *. (2.0 ** float_of_int k))
  *. (0.5 +. (0.5 *. Prng.float rng))

let check_stop r = if r.stopped () then raise Stopped

let reconnect ?(final = fun _ -> false) r ~what dial =
  let rec go attempt last =
    check_stop r;
    if attempt >= r.attempts then
      raise
        (Gave_up
           (Printf.sprintf "%s: gave up after %d attempts%s" what r.attempts
              last));
    if attempt > 0 then begin
      r.sleep (backoff_delay ~base_s:r.base_s ~max_s:r.max_s r.rng (attempt - 1));
      check_stop r
    end;
    match dial () with
    | v -> v
    | exception e when Client.transient e && not (final e) ->
      let why = Printexc.to_string e in
      Log.info (fun m -> m "%s: attempt %d failed: %s" what (attempt + 1) why);
      go (attempt + 1) (", last: " ^ why)
  in
  go 0 ""

let busy_wait r ~what ~on_busy f =
  let rec go () =
    check_stop r;
    match f () with
    | v -> v
    | exception Client.Busy { retry_ms } ->
      on_busy ();
      let d =
        backoff_delay ~base_s:(float_of_int retry_ms /. 1000.) ~max_s:infinity
          r.rng 0
      in
      Log.info (fun m -> m "%s: relay busy, waiting %.0f ms" what (d *. 1000.));
      r.sleep d;
      go ()
  in
  go ()
