(* The relay control protocol, described once: see relay_proto.mli and
   PROTOCOLS.md §11-18. Every decoder here is total — [Error _], never
   an exception. *)

module Trace = Omf_trace.Trace

type kvs = (string * string) list

type request =
  | Hello of kvs
  | Advertise of { stream : string; meta : kvs; schema : string }
  | Publish of {
      stream : string;
      acks : bool;
      mirror : (string * int) option;
      trace : Trace.ctx option;
    }
  | Subscribe of { stream : string; from : int option; meta : bool }
  | Stats
  | List
  | Describe of string
  | Promote of string

type error = Malformed of string | Unknown of string
type reply = Ok of string | Err of string | Busy of int | Ack of int

(* ------------------------------------------------------------------ *)
(* Text helpers                                                         *)
(* ------------------------------------------------------------------ *)

let split_at s i =
  (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let first_line s =
  match String.index_opt s '\n' with None -> (s, "") | Some i -> split_at s i

(* "k=v" lines; a line without '=' is skipped *)
let kv_lines s : kvs =
  String.split_on_char '\n' s
  |> List.filter_map (fun l -> Option.map (split_at l) (String.index_opt l '='))

let int_opt (kvs : kvs) k = Option.bind (List.assoc_opt k kvs) int_of_string_opt
let flag (kvs : kvs) k = List.assoc_opt k kvs = Some "1"

(* A §14 metadata line: a bare-identifier key and no '<' anywhere, so
   the schema text (XML starts with '<') is never mistaken for one. *)
let is_meta_line line =
  match String.index_opt line '=' with
  | None -> false
  | Some i ->
    i > 0
    && (not (String.contains line '<'))
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
           | _ -> false)
         (String.sub line 0 i)

(* leading metadata lines, then the schema from the first other line *)
let split_meta s : kvs * string =
  let rec go acc off =
    match String.index_from_opt s off '\n' with
    | Some j when is_meta_line (String.sub s off (j - off)) ->
      let line = String.sub s off (j - off) in
      go (split_at line (String.index line '=') :: acc) (j + 1)
    | Some _ | None -> (List.rev acc, String.sub s off (String.length s - off))
  in
  go [] 0

let meta_text (kvs : kvs) =
  String.concat "" (List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n") kvs)

let frame kind body =
  let b = Bytes.create (1 + String.length body) in
  Bytes.set b 0 kind;
  Bytes.blit_string body 0 b 1 (String.length body);
  b

let split_frame f =
  if Bytes.length f = 0 then None
  else Some (Bytes.get f 0, Bytes.sub_string f 1 (Bytes.length f - 1))

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

let encode_request (r : request) : Bytes.t =
  match r with
  | Hello creds ->
    frame 'h' (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) creds))
  | Advertise { stream; meta; schema } ->
    frame 'a' (stream ^ "\n" ^ meta_text meta ^ schema)
  | Publish { stream; acks; mirror; trace } ->
    frame 'p'
      (stream
      ^ (if acks then "\nacks=1" else "")
      ^ (match mirror with
        | Some (origin, epoch) ->
          Printf.sprintf "\nmirror=1\norigin=%s\nepoch=%d" origin epoch
        | None -> "")
      ^
      match trace with Some ctx -> "\ntrace=" ^ Trace.to_string ctx | None -> ""
      )
  | Subscribe { stream; from; meta } ->
    frame 's'
      (stream
      ^ (match from with Some n -> Printf.sprintf "\nfrom=%d" n | None -> "")
      ^ if meta then "\nmeta=1" else "")
  | Stats -> frame 't' ""
  | List -> frame 'l' ""
  | Describe stream -> frame 'q' stream
  | Promote stream -> frame 'm' stream

let decode_request (f : Bytes.t) : (request, error) result =
  match split_frame f with
  | None -> Error (Unknown "empty frame")
  | Some ('h', body) -> Ok (Hello (kv_lines body))
  | Some ('a', body) -> (
    match String.index_opt body '\n' with
    | None -> Error (Malformed "advertise: want \"stream\\n[k=v...]\\nschema\"")
    | Some i ->
      let stream, rest = split_at body i in
      let meta, schema = split_meta rest in
      Ok (Advertise { stream; meta; schema }))
  | Some ('p', body) -> (
    let stream, opts = first_line body in
    let o = kv_lines opts in
    let publish mirror : (request, error) result =
      Ok
        (Publish
           { stream; acks = flag o "acks"; mirror
           ; trace = Option.bind (List.assoc_opt "trace" o) Trace.of_string })
    in
    match (flag o "mirror", List.assoc_opt "origin" o, int_opt o "epoch") with
    | false, _, _ -> publish None
    | true, Some origin, Some epoch -> publish (Some (origin, epoch))
    | true, _, _ ->
      Error
        (Malformed
           (Printf.sprintf "publish %s: stale mirror link (no origin/epoch tag)"
              stream)))
  | Some ('s', body) ->
    let stream, opts = first_line body in
    let o = kv_lines opts in
    Ok (Subscribe { stream; from = int_opt o "from"; meta = flag o "meta" })
  | Some ('t', _) -> Ok Stats
  | Some ('l', _) -> Ok List
  | Some ('q', body) -> Ok (Describe (fst (first_line body)))
  | Some ('m', body) -> Ok (Promote (fst (first_line body)))
  | Some (k, _) -> Error (Unknown (Printf.sprintf "unknown command %C" k))

let target = function
  | Advertise { stream; _ } -> Some ("advertise", stream)
  | Publish { stream; _ } -> Some ("publish", stream)
  | Subscribe { stream; _ } -> Some ("subscribe", stream)
  | Describe stream -> Some ("describe", stream)
  | Promote stream -> Some ("promote", stream)
  | Hello _ | Stats | List -> None

(* ------------------------------------------------------------------ *)
(* Replies                                                              *)
(* ------------------------------------------------------------------ *)

let encode_reply (r : reply) : Bytes.t =
  match r with
  | Ok body -> frame 'o' body
  | Err msg -> frame 'e' msg
  | Busy ms -> frame 'b' (Printf.sprintf "retry_ms=%d" ms)
  | Ack n -> frame 'k' (string_of_int n)

let decode_reply (f : Bytes.t) : (reply, string) result =
  match split_frame f with
  | None -> Error "empty reply"
  | Some ('o', body) -> Ok (Ok body)
  | Some ('e', body) -> Ok (Err body)
  | Some ('b', body) -> (
    match int_opt (kv_lines body) "retry_ms" with
    | Some ms -> Ok (Busy ms)
    | None -> Error "malformed busy reply")
  | Some ('k', body) -> (
    match int_of_string_opt body with
    | Some n -> Ok (Ack n)
    | None -> Error "malformed ack")
  | Some (k, _) -> Error (Printf.sprintf "unknown reply kind %C" k)

type banner = { mac : bool; comp : bool }

let encode_banner { mac; comp } =
  "omf-relay 1" ^ (if mac then " mac" else "") ^ if comp then " comp=lz" else ""

let decode_banner body =
  let tokens = String.split_on_char ' ' body in
  { mac = List.mem "mac" tokens; comp = List.mem "comp=lz" tokens }

type watermark = { durable : int; tail : int option }

let encode_published = function
  | None -> ""
  | Some { durable; tail = None } -> Printf.sprintf "durable=%d" durable
  | Some { durable; tail = Some t } ->
    Printf.sprintf "durable=%d\ntail=%d" durable t

let decode_published body : (watermark option, string) result =
  let kvs = kv_lines body in
  let tail = Option.map int_of_string_opt (List.assoc_opt "tail" kvs) in
  match (body, int_opt kvs "durable", tail) with
  | "", _, _ -> Ok None
  | _, Some durable, None -> Ok (Some { durable; tail = None })
  | _, Some durable, Some (Some t) -> Ok (Some { durable; tail = Some t })
  | _ -> Error (Printf.sprintf "malformed publish reply %S" body)

type schema_reply = { offset : int option; meta : kvs; schema : string }

let encode_schema_reply { offset; meta; schema } =
  (match offset with Some o -> Printf.sprintf "offset=%d\n" o | None -> "")
  ^ meta_text meta ^ schema

let decode_schema_reply ~offset ~meta body : (schema_reply, string) result =
  let reply off rest : (schema_reply, string) result =
    let kvs, schema = if meta then split_meta rest else ([], rest) in
    Ok { offset = off; meta = kvs; schema }
  in
  if offset && String.starts_with ~prefix:"offset=" body then
    let line, rest = first_line body in
    match int_opt (kv_lines line) "offset" with
    | Some o -> reply (Some o) rest
    | None -> Error (Printf.sprintf "malformed offset line %S" line)
  else reply None body

let encode_epoch = Printf.sprintf "epoch=%d"

let decode_epoch body : (int, string) result =
  match int_opt (kv_lines body) "epoch" with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "malformed epoch reply %S" body)

let encode_list = String.concat "\n"
let decode_list body = List.filter (( <> ) "") (String.split_on_char '\n' body)

let encode_stats kvs =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) kvs)

let decode_stats = Omf_util.Counters.of_text

(* ------------------------------------------------------------------ *)
(* Refusals                                                             *)
(* ------------------------------------------------------------------ *)

let read_only cmd stream origin =
  Printf.sprintf "%s %s: read-only (mirrored from %s)" cmd stream origin

let origin_loop stream =
  Printf.sprintf "advertise %s: origin loop (stream originates here)" stream

let stale_epoch stream ~epoch ~origin ~held =
  Printf.sprintf "advertise %s: stale epoch %d (held by %s at epoch %d)" stream
    epoch origin held

let stale_mirror stream origin epoch =
  Printf.sprintf "publish %s: stale mirror link (stream is %s@%d here)" stream
    origin epoch

let unknown_stream cmd stream = Printf.sprintf "%s: unknown stream %s" cmd stream
let access_denied cmd msg = Printf.sprintf "%s: access denied: %s" cmd msg

(* one mark per refusal text above (and the malformed mirror tag) *)
let refusal_marks =
  [ "read-only"; "originates here"; "stale epoch"; "stale mirror link"
  ; "unknown stream"; "access denied" ]

let is_refusal msg =
  let has mark =
    let n = String.length mark in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = mark || at (i + 1))
    in
    at 0
  in
  List.exists has refusal_marks

(* ------------------------------------------------------------------ *)
(* Stream metadata                                                      *)
(* ------------------------------------------------------------------ *)

let advert_origin (kvs : kvs) = List.assoc_opt "origin" kvs
let advert_epoch (kvs : kvs) = Option.value (int_opt kvs "epoch") ~default:0

let with_origin (kvs : kvs) ~origin ~epoch =
  List.filter (fun (k, _) -> k <> "origin" && k <> "epoch") kvs
  @ [ ("origin", origin); ("epoch", string_of_int epoch) ]

let tag (kvs : kvs) ~relay_id =
  (Option.value (advert_origin kvs) ~default:relay_id, advert_epoch kvs)

let tagged (kvs : kvs) ~origin =
  if advert_origin kvs <> None then kvs
  else kvs @ [ ("origin", origin); ("epoch", "0") ]

(* §15 arbitration: the relay's own stream coming back around a cycle,
   an untagged advertise of a mirrored stream and a stale epoch are
   refused; a strictly higher epoch takes ownership over *)
let gate_advert ~relay_id ~(current : kvs option) stream (meta : kvs) :
    (kvs, string) result =
  match (advert_origin meta, current) with
  | None, None -> Ok (with_origin meta ~origin:relay_id ~epoch:0)
  | None, Some cur ->
    let origin, epoch = tag cur ~relay_id in
    if origin = relay_id then Ok (with_origin meta ~origin ~epoch)
    else Error (read_only "advertise" stream origin)
  | Some o, _ when o = relay_id -> Error (origin_loop stream)
  | Some o, None -> Ok (with_origin meta ~origin:o ~epoch:(advert_epoch meta))
  | Some o, Some cur ->
    let origin, held = tag cur ~relay_id and epoch = advert_epoch meta in
    if origin = o then Ok (with_origin meta ~origin ~epoch:(max epoch held))
    else if epoch > held then Ok (with_origin meta ~origin:o ~epoch)
    else Error (stale_epoch stream ~epoch ~origin ~held)

let with_trace (kvs : kvs) = function
  | None -> kvs
  | Some ctx -> kvs @ [ ("trace", Trace.to_string ctx) ]

let split_trace (kvs : kvs) =
  ( Option.bind (List.assoc_opt "trace" kvs) Trace.of_string,
    List.filter (fun (k, _) -> k <> "trace") kvs )
