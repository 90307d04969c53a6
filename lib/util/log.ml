type level = Error | Warning | Info | Debug

type 'a msgf = ('a, unit, string, unit) format4 -> 'a

let rank = function Error -> 0 | Warning -> 1 | Info -> 2 | Debug -> 3

(* the rank of the most verbose level printed; below every rank until a
   daemon sets one *)
let threshold = ref (-1)

let set_level level = threshold := rank level

let exe =
  Filename.basename
    (if Array.length Sys.argv > 0 then Sys.argv.(0) else Sys.executable_name)

(* the line goes out in one write, so lines from several domains never
   interleave *)
let msg level label k =
  if rank level <= !threshold then
    k (fun fmt ->
        Printf.ksprintf
          (fun s ->
            prerr_string (Printf.sprintf "%s: [%s] %s\n" exe label s);
            flush stderr)
          fmt)

let err k = msg Error "ERROR" k
let warn k = msg Warning "WARNING" k
let info k = msg Info "INFO" k
let debug k = msg Debug "DEBUG" k
