(** The relayd child process: spawn it, wait until it listens, read its
    CPU time and peak memory from [/proc], stop it. Every spawned pid is
    remembered so {!kill_all} can reap stragglers on any exit path. *)

type t = {
  pid : int;
  port : int;
  metrics_port : int option;
  log : string;
}

let live : int list ref = ref []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_from s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

(* the port in "<marker>HOST:PORT<terminator>" on a relayd log line *)
let port_after log ~marker ~terminator =
  match find_from log marker 0 with
  | None -> None
  | Some i -> (
    let start = i + String.length marker in
    match find_from log terminator start with
    | None -> None
    | Some j -> (
      let hostport = String.sub log start (j - start) in
      match String.rindex_opt hostport ':' with
      | None -> None
      | Some k ->
        int_of_string_opt
          (String.sub hostport (k + 1) (String.length hostport - k - 1))))

let reap pid = live := List.filter (( <> ) pid) !live

let wait_exit ~timeout_s pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.002; go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  reap pid

(** Start [relayd] on an ephemeral port with [args], logging to [log],
    and return once it accepts connections (and serves its metrics
    port, when [metrics] is set). *)
let spawn ~relayd ~log ?(metrics = false) args : t =
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let argv =
    Array.of_list
      ((relayd :: "--port" :: "0" :: args)
      @ if metrics then [ "--metrics-port"; "0" ] else [])
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () -> Unix.create_process relayd argv devnull out out)
  in
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    let text = read_file log in
    let port =
      port_after text ~marker:"listening on " ~terminator:" ("
    in
    let mport =
      if metrics then
        port_after text ~marker:"metrics on http://" ~terminator:"/metrics"
      else None
    in
    match (port, mport) with
    | Some port, _ when (not metrics) || mport <> None ->
      { pid; port; metrics_port = mport; log }
    | _ ->
      let exited =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _ -> true
      in
      if exited || Unix.gettimeofday () > deadline then begin
        if not exited then wait_exit ~timeout_s:0.0 pid else reap pid;
        failwith
          (Printf.sprintf "relayd did not start (%s):\n%s" log
             (read_file log))
      end;
      Unix.sleepf 0.0002;
      wait ()
  in
  wait ()

(** Ask for a graceful drain (SIGINT) and wait for the exit. *)
let stop (p : t) =
  (try Unix.kill p.pid Sys.sigint with Unix.Unix_error _ -> ());
  wait_exit ~timeout_s:15.0 p.pid

let kill (p : t) =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_exit ~timeout_s:5.0 p.pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(** Time the process's live threads have spent on a CPU, in seconds:
    the first field of each [/proc/<pid>/task/<tid>/schedstat], which
    counts nanoseconds (utime + stime in [stat] ticks at 10 ms). *)
let cpu_s (p : t) : float =
  let dir = Printf.sprintf "/proc/%d/task" p.pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc +. (float_of_string (List.hd (String.split_on_char ' ' s)) /. 1e9)
      | exception Sys_error _ -> acc (* the thread exited meanwhile *))
    0.0 (Sys.readdir dir)

(** Peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mb (p : t) : float =
  let s = read_file (Printf.sprintf "/proc/%d/status" p.pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    String.sub line 6 (String.length line - 6)
    |> String.map (fun c -> if c = '\t' then ' ' else c)
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
    |> List.hd |> float_of_string
  in
  kb /. 1024.0
