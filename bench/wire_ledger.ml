(** The wire-size ledger: bench/alloc.exe's size rows, checked against
    the ledger checked in beside it:

      ./alloc.exe | ./wire_ledger.exe wire_ledger.txt

    The rows are, per shape, the message's bytes ([shapes.S.message_B]),
    the event frame's ([link.S.frame_B]), and what each negotiated frame
    mode puts on the wire for it ([link.S.MODE.wire_B]). They count
    bytes, so they are the same on every compiler and host. The check
    fails when a row rises, and when one falls without the ledger: a
    change that makes a row smaller lowers its line, so the ledger only
    ever ratchets down. Each ledger line is [ROW BYTES]; [#] starts a
    comment. The JSON read on stdin is echoed to stdout first. *)

let size_row path =
  match String.split_on_char '.' path with
  | [ "shapes"; _; "message_B" ] | [ "link"; _; "frame_B" ]
  | [ "link"; _; _; "wire_B" ] ->
    true
  | _ -> false

(* every number of a JSON text of objects, by dotted key path (strings
   skipped; alloc.exe prints no arrays and no escapes) *)
let numbers (text : string) : (string * string) list =
  let n = String.length text and i = ref 0 and rows = ref [] in
  let rec skip () =
    if !i < n && String.contains " \t\r\n" text.[!i] then (incr i; skip ())
  in
  let expect c =
    skip ();
    if !i >= n || text.[!i] <> c then
      failwith (Printf.sprintf "wire_ledger: expected '%c' at byte %d" c !i);
    incr i
  in
  let str () =
    expect '"';
    let j = String.index_from text !i '"' in
    let s = String.sub text !i (j - !i) in
    i := j + 1;
    s
  in
  let rec value path =
    skip ();
    match text.[!i] with
    | '{' ->
      incr i;
      skip ();
      if text.[!i] = '}' then incr i else members path
    | '"' -> ignore (str ())
    | _ ->
      let j = ref !i in
      while !j < n && not (String.contains ",} \t\r\n" text.[!j]) do incr j done;
      rows := (String.concat "." (List.rev path), String.sub text !i (!j - !i)) :: !rows;
      i := !j
  and members path =
    let key = str () in
    expect ':';
    value (key :: path);
    skip ();
    if !i < n && text.[!i] = ',' then (incr i; members path) else expect '}'
  in
  value [];
  List.rev !rows

let read_ledger file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line '#' with
         | Some 0 -> None
         | _ -> (
           match String.split_on_char ' ' (String.trim line) with
           | [ "" ] -> None
           | [ row; bytes ] -> Some (row, int_of_string bytes)
           | _ -> failwith ("wire_ledger: bad ledger line: " ^ line)))

let () =
  let file = Sys.argv.(1) in
  let json = In_channel.input_all stdin in
  print_string json;
  let measured =
    List.filter_map
      (fun (row, v) -> if size_row row then Some (row, int_of_string v) else None)
      (numbers json)
  in
  let ledger = read_ledger file in
  let faults =
    List.filter_map
      (fun (row, b) ->
        match List.assoc_opt row ledger with
        | None -> Some (Printf.sprintf "%s is %d B and not in the ledger: add it" row b)
        | Some l when b > l -> Some (Printf.sprintf "%s rose from %d to %d B" row l b)
        | Some l when b < l ->
          Some (Printf.sprintf "%s fell from %d to %d B: lower its ledger line" row l b)
        | Some _ -> None)
      measured
    @ List.filter_map
        (fun (row, _) ->
          if List.mem_assoc row measured then None
          else Some (row ^ " is in the ledger but no longer measured: remove it"))
        ledger
  in
  match faults with
  | [] -> Printf.printf "wire ledger: %d rows as %s records them\n" (List.length ledger) file
  | _ ->
    List.iter (fun f -> prerr_endline ("wire ledger: " ^ f)) faults;
    exit 1
