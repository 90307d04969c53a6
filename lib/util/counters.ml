(* A histogram's counter keys, built once per name: [observe] runs on
   hot paths (once per published message) and must not format strings
   per sample. [bounds] is the list the keys were built from. *)
type hist_keys = {
  bounds : int list;
  limits : int array;  (** [bounds] *)
  buckets : string array;  (** one per bound, in order *)
  le_inf : string;
  count : string;
  sum : string;
}

type t = {
  mu : Mutex.t;
  tbl : (string, int ref) Hashtbl.t;
  hists : (string, hist_keys) Hashtbl.t;
}

let create () : t =
  { mu = Mutex.create (); tbl = Hashtbl.create 16; hists = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let cell t name =
  match Hashtbl.find t.tbl name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.replace t.tbl name r;
    r

(* [add], [incr] and [set] run once or more per relayed frame: they
   lock by hand rather than through [locked], whose closure would be
   allocated on every call, and nothing between lock and unlock can
   raise once the cell exists *)
let add t name by =
  Mutex.lock t.mu;
  let r = cell t name in
  r := !r + by;
  Mutex.unlock t.mu

let incr t name = add t name 1

let set t name v =
  Mutex.lock t.mu;
  cell t name := v;
  Mutex.unlock t.mu

(* Histograms are encoded as plain counters under the reserved "hist."
   group so they ride every existing transport for free (STATS text,
   [merged] across shards, [of_text]): cumulative buckets
   "hist.<name>.le_<bound>" (zero-padded so sorted = numeric order),
   "hist.<name>.le_inf", plus "hist.<name>.count" / "hist.<name>.sum".
   Summing two snapshots bucket-wise is exactly histogram merge. *)
let default_bounds =
  [50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000; 50000; 100000; 250000; 1000000]

let bucket_key name bound = Printf.sprintf "hist.%s.le_%09d" name bound

let hist_keys t name bounds =
  match Hashtbl.find t.hists name with
  | k when k.bounds == bounds -> k
  | _ | (exception Not_found) ->
    let k =
      { bounds
      ; limits = Array.of_list bounds
      ; buckets = Array.of_list (List.map (bucket_key name) bounds)
      ; le_inf = Printf.sprintf "hist.%s.le_inf" name
      ; count = Printf.sprintf "hist.%s.count" name
      ; sum = Printf.sprintf "hist.%s.sum" name }
    in
    Hashtbl.replace t.hists name k;
    k

let observe t ?(bounds = default_bounds) name v =
  Mutex.lock t.mu;
  let k = hist_keys t name bounds in
  for i = 0 to Array.length k.limits - 1 do
    if v <= k.limits.(i) then Stdlib.incr (cell t k.buckets.(i))
  done;
  Stdlib.incr (cell t k.le_inf);
  Stdlib.incr (cell t k.count);
  let sum = cell t k.sum in
  sum := !sum + v;
  Mutex.unlock t.mu

let get t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with Some r -> !r | None -> 0)

let dump t =
  locked t (fun () -> Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merged (ts : t list) : (string * int) list =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun t ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt acc name with
          | Some r -> r := !r + v
          | None -> Hashtbl.replace acc name (ref v))
        (dump t))
    ts;
  Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_text (snapshot : (string * int) list) =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" name v))
    snapshot;
  Buffer.contents b

let of_text s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | None -> None
         | Some i ->
           let name = String.sub line 0 i in
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           (match int_of_string_opt (String.trim v) with
           | Some v when name <> "" -> Some (name, v)
           | _ -> None))

let metric_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
  | _ -> '_'

(* Per-subject gauges are named "<group>.<subject>.<metric>" internally
   (e.g. "stream.flights.queue_depth", "mirror.flights.lag_frames");
   Prometheus wants the subject as a label, not baked into the metric
   name, so same-metric series aggregate across streams. The first and
   last dot-separated segments are group and metric (neither ever
   contains a dot); everything between is the subject verbatim — stream
   names may themselves contain dots. *)
let split_labeled (name : string) : (string * string * string) option =
  match String.index_opt name '.' with
  | None -> None
  | Some i -> (
    match String.rindex_opt name '.' with
    | Some j when j > i ->
      Some
        ( String.sub name 0 i
        , String.sub name (i + 1) (j - i - 1)
        , String.sub name (j + 1) (String.length name - j - 1) )
    | _ -> None)

let label_escape (s : string) : string =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* "le_000000250" -> "250"; "le_inf" -> "+Inf". *)
let le_label (metric : string) : string =
  let digits = String.sub metric 3 (String.length metric - 3) in
  if digits = "inf" then "+Inf"
  else
    let n = String.length digits in
    let i = ref 0 in
    while !i < n - 1 && digits.[!i] = '0' do
      Stdlib.incr i
    done;
    String.sub digits !i (n - !i)

(* Scrape-to-scrape memory for staleness marks: the value of every
   series at the previous render, keyed by component + series name
   (one tracker may serve several components, e.g. relay + mirror
   behind one /metrics). *)
type staleness = (string, int) Hashtbl.t

let staleness () : staleness = Hashtbl.create 64

let prometheus ?staleness:(tracker : staleness option) ~component
    (snapshot : (string * int) list) : string =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string b "omf_";
      Buffer.add_string b (String.map metric_char component);
      Buffer.add_char b '_';
      (match split_labeled name with
      | Some ("hist", hname, metric) ->
        Buffer.add_string b (String.map metric_char hname);
        if String.length metric > 3 && String.sub metric 0 3 = "le_" then (
          Buffer.add_string b "_bucket{le=\"";
          Buffer.add_string b (le_label metric);
          Buffer.add_string b "\"}")
        else (
          Buffer.add_char b '_';
          Buffer.add_string b (String.map metric_char metric))
      | Some (group, subject, metric) ->
        Buffer.add_string b (String.map metric_char group);
        Buffer.add_char b '_';
        Buffer.add_string b (String.map metric_char metric);
        Buffer.add_string b "{stream=\"";
        Buffer.add_string b (label_escape subject);
        Buffer.add_string b "\"}"
      | None -> Buffer.add_string b (String.map metric_char name));
      Buffer.add_string b (Printf.sprintf " %d\n" v))
    snapshot;
  (match tracker with
  | None -> ()
  | Some prev ->
    (* A series is stale when this scrape sees the same value as the
       previous one; series first seen this scrape count as fresh. *)
    let stale = ref 0 in
    List.iter
      (fun (name, v) ->
        let key = component ^ "\x00" ^ name in
        (match Hashtbl.find_opt prev key with
        | Some old when old = v -> Stdlib.incr stale
        | _ -> ());
        Hashtbl.replace prev key v)
      snapshot;
    Buffer.add_string b
      (Printf.sprintf
         "# staleness: %s: %d of %d series unchanged since previous scrape\n"
         component !stale (List.length snapshot));
    Buffer.add_string b
      (Printf.sprintf "omf_%s_stale %d\n" (String.map metric_char component)
         !stale));
  Buffer.contents b
