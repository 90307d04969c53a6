(** compare: judge a change against its parent from paired omfbench runs.

    [compare.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR]

    Each directory holds one file per run, named [<workload>.<i>.json],
    whose last non-empty line is an omfbench result line; run [i] of the
    parent and run [i] of the change form a pair (run them alternately,
    as pairs.sh does). Every metric of BENCHMARK.json found in the runs
    is judged by the paired-run rule:

    - [gain]: at least ten pairs, the change wins at least nine tenths of
      them (ties count for neither side), and the medians differ by more
      than the parent's inter-quartile distance; [loss] is the same rule
      the other way round;
    - [regression]: the change's median is worse than the parent's by
      more than the metric's bound (end-to-end metrics only);
    - [unresolved]: the parent's own spread (inter-quartile distance over
      median) exceeds the bound, so "no change" cannot be shown — unless
      every change run beats every parent run ([better-all]);
    - [unchanged]: within the bound. A per-layer metric has no bound:
      short of a gain or a loss its verdict is [-].

    With fewer than ten pairs no gain is ever claimed. One row per
    workload names every verdict other than [unchanged] and [-]; then
    each metric's medians and quartiles on both sides. Exits 1 when an
    end-to-end metric regressed.

    [compare.exe --summarize DIR] prints the median, quartiles and
    spread of every metric in DIR's runs, per workload, as JSON (the
    form of the files under baseline/). *)

type metric = {
  name : string;
  unit : string;
  higher : bool;
  bound : float option;  (** end-to-end metrics only *)
}

let metrics_of_bench path =
  let j = Json.parse (Proc.read_file path) in
  let str k m = Option.bind (Json.member k m) Json.to_str in
  List.concat_map
    (fun section ->
      List.filter_map
        (fun m ->
          match (str "name" m, str "unit" m, str "better" m) with
          | Some name, Some unit, Some better ->
            Some
              { name; unit; higher = better = "higher"
              ; bound = Option.bind (Json.member "bound" m) Json.to_num }
          | _ -> None)
        (Json.to_list (Option.value ~default:Json.Null (Json.member section j))))
    [ "end_to_end"; "per_layer" ]

(* (workload, run index) -> metric values of that run's result line *)
let load_runs dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun file ->
         match String.split_on_char '.' file with
         | [ workload; i; "json" ] -> (
           match int_of_string_opt i with
           | None -> None
           | Some i ->
             let lines =
               String.split_on_char '\n' (Proc.read_file (Filename.concat dir file))
               |> List.filter (fun l -> String.trim l <> "")
             in
             let last = List.nth lines (List.length lines - 1) in
             let values =
               match Json.member "metrics" (Json.parse last) with
               | Some (Json.Obj kvs) ->
                 List.filter_map
                   (fun (k, v) ->
                     Option.map (fun f -> (k, f))
                       (Option.bind (Json.member "value" v) Json.to_num))
                   kvs
               | _ -> []
             in
             Some ((workload, i), values))
         | _ -> None)

let workloads_of runs = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) runs)

(* q1, median, q3 *)
let summary l =
  let med = Qstats.median l in
  let q1, q3 = if List.length l >= 2 then Qstats.quartiles l else (med, med) in
  (q1, med, q3)

type verdict = {
  v : string;
  delta_pct : float;
  wins : int;
  pairs : int;
  parent : float * float * float;
  change : float * float * float;
}

let judge (m : metric) (pairs : (float * float) list) : verdict =
  let n = List.length pairs in
  let ps = List.map fst pairs and cs = List.map snd pairs in
  let ((pq1, pmed, pq3) as parent) = summary ps in
  let ((_, cmed, _) as change) = summary cs in
  let sign = if m.higher then 1.0 else -1.0 in
  let better c p = sign *. (c -. p) > 0.0 in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let losses = List.length (List.filter (fun (p, c) -> better p c) pairs) in
  let gap = cmed -. pmed in
  let rel = gap /. pmed in
  let decisive k = n >= 10 && 10 * k >= 9 * n && Float.abs gap > pq3 -. pq1 in
  let v =
    if decisive wins && sign *. gap > 0.0 then "gain"
    else
      match m.bound with
      | Some b when sign *. rel < -.b -> "regression"
      | Some b when (pq3 -. pq1) /. pmed > b ->
        if List.for_all (fun c -> List.for_all (fun p -> better c p) ps) cs then
          "better-all"
        else "unresolved"
      | Some _ -> "unchanged"
      | None -> if decisive losses && sign *. gap < 0.0 then "loss" else "-"
  in
  { v; delta_pct = 100.0 *. rel; wins; pairs = n; parent; change }

(** Median, quartiles and spread of every metric per workload, as JSON
    — the form of the committed baseline files. *)
let summarize dir =
  let runs = load_runs dir in
  let per_workload w =
    let mine = List.filter_map (fun ((w', _), v) -> if w' = w then Some v else None) runs in
    let names = List.sort_uniq compare (List.concat_map (List.map fst) mine) in
    ( w
    , Json.Obj
        (List.map
           (fun k ->
             let vals = List.filter_map (List.assoc_opt k) mine in
             let q1, med, q3 = summary vals in
             ( k
             , Json.Obj
                 [ ("n", Json.Num (float_of_int (List.length vals)))
                 ; ("median", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3)
                 ; ("spread", Json.Num (if med = 0.0 then 0.0 else (q3 -. q1) /. med)) ] ))
           names) )
  in
  print_endline (Json.to_string (Json.Obj (List.map per_workload (workloads_of runs))))

let compare_dirs bench parent_dir change_dir =
  let metrics = metrics_of_bench bench in
  let parent = load_runs parent_dir and change = load_runs change_dir in
  let rows =
    List.map
      (fun w ->
        let paired =
          List.filter_map
            (fun ((w', i), pv) ->
              if w' <> w then None
              else Option.map (fun cv -> (pv, cv)) (List.assoc_opt (w, i) change))
            parent
        in
        let verdicts =
          List.filter_map
            (fun m ->
              let pairs =
                List.filter_map
                  (fun (pv, cv) ->
                    match (List.assoc_opt m.name pv, List.assoc_opt m.name cv) with
                    | Some p, Some c -> Some (p, c)
                    | _ -> None)
                  paired
              in
              if pairs = [] then None else Some (m, judge m pairs))
            metrics
        in
        (w, List.length paired, verdicts))
      (workloads_of parent)
  in
  List.iter
    (fun (w, n, verdicts) ->
      let notable =
        List.filter_map
          (fun (m, v) ->
            if v.v = "unchanged" || v.v = "-" then None
            else Some (Printf.sprintf "%s %s %+.1f%% (%d/%d)" m.name v.v v.delta_pct v.wins v.pairs))
          verdicts
      in
      Printf.printf "%-18s %3d pairs  %s\n" w n
        (if notable = [] then "no gain, no regression" else String.concat "; " notable))
    rows;
  print_newline ();
  List.iter
    (fun (w, _, verdicts) ->
      List.iter
        (fun (m, v) ->
          let p1, pm, p3 = v.parent and c1, cm, c3 = v.change in
          Printf.printf
            "%-18s %-34s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g] %s  %s\n"
            w m.name pm p1 p3 cm c1 c3 m.unit v.v)
        verdicts)
    rows;
  let regressed =
    List.exists
      (fun (_, _, verdicts) -> List.exists (fun (_, v) -> v.v = "regression") verdicts)
      rows
  in
  exit (if regressed then 1 else 0)

let usage =
  "compare.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR\n\
   compare.exe --summarize DIR"

let () =
  let bench = ref "BENCHMARK.json" in
  let summary = ref false in
  let dirs = ref [] in
  Arg.parse
    [ ("--bench", Arg.Set_string bench, "FILE  metric definitions (BENCHMARK.json)")
    ; ("--summarize", Arg.Set summary, " print median and quartiles per workload and metric") ]
    (fun d -> dirs := !dirs @ [ d ])
    usage;
  match (!summary, !dirs) with
  | true, [ dir ] -> summarize dir
  | false, [ parent_dir; change_dir ] -> compare_dirs !bench parent_dir change_dir
  | _ ->
    prerr_endline usage;
    exit 2
