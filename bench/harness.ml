(** Thin wrapper over Bechamel: one [Test.make] per measured operation,
    OLS-estimated ns/op, and plain-text table rendering that mirrors the
    paper's presentation. *)

open Bechamel
open Toolkit

(** Quick mode ([OMF_BENCH_QUICK] set): a fast smoke pass — tiny
    measurement quota and reduced workload scale — used by the [@smoke]
    alias. Numbers are noisy; shape only. *)
let quick = Sys.getenv_opt "OMF_BENCH_QUICK" <> None

(** Bechamel's time quota per measurement, in seconds. *)
let quota_seconds = if quick then 0.02 else 0.3

let cfg =
  Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_seconds) ~kde:None
    ~stabilize:true ()

let instance = Instance.monotonic_clock

(** [now_s ()] is the monotonic clock ([Omf_util.Clock]) in seconds, for
    sections that time an interval by hand. Only differences mean
    anything. *)
let now_s () = float_of_int (Omf_util.Clock.now_us ()) /. 1e6

(** [measure_ns ~name f] is the OLS-estimated wall time of [f ()] in ns. *)
let measure_ns ~name (f : unit -> 'a) : float =
  let test = Test.make ~name (Staged.stage (fun () -> ignore (Sys.opaque_identity (f ())))) in
  let results = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols instance results in
  match Hashtbl.fold (fun _ v acc -> v :: acc) analyzed [] with
  | [ v ] -> (
    match Analyze.OLS.estimates v with
    | Some (ns :: _) -> ns
    | Some [] | None -> nan)
  | _ -> nan

(* ---- formatting ---- *)

let ns_pp ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
  else if ns < 1_000_000.0 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.3f ms" (ns /. 1e6)

let ms_pp ns = Printf.sprintf "%.3f" (ns /. 1e6)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

(** Render rows with left-aligned first column and right-aligned rest. *)
let table (headers : string list) (rows : string list list) =
  let all = headers :: rows in
  let ncols = List.length headers in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let render row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Printf.sprintf "%-*s" w cell
           else Printf.sprintf "%*s" w cell)
         row)
  in
  Printf.printf "%s\n" (render headers);
  Printf.printf "%s\n" (String.make (String.length (render headers)) '-');
  List.iter (fun r -> Printf.printf "%s\n" (render r)) rows

let note fmt = Printf.printf fmt
