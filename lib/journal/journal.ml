(** Binary journals: NDR messages "written to data files in a
    heterogeneous computing environment" (the second use PBIO was built
    for, section 4.1.2).

    A journal is a sequence of length-prefixed records, each either a
    format descriptor (written once per format, before its first use) or
    a framed NDR message. Because descriptors are embedded, a journal is
    self-describing: it can be replayed years later, on a machine with a
    different ABI, by a process that never talked to the writer — the
    reader converts exactly as a live receiver would.

    File layout:
    {v
    "OMFJRNL1"                                magic (8 bytes)
    repeat:
      u32 big-endian record length
      kind byte: 'D' descriptor | 'M' message
      body
    v} *)

open Omf_machine
open Omf_pbio

exception Journal_error of string

let journal_error fmt = Printf.ksprintf (fun s -> raise (Journal_error s)) fmt

let magic = "OMFJRNL1"

let kind_descriptor = 'D'
let kind_message = 'M'

(* ------------------------------------------------------------------ *)
(* Writer                                                               *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type t = {
    oc : out_channel;
    announced : (string, unit) Hashtbl.t;
        (** keyed by descriptor blob, not registry id: ids collide across
            registries and across format upgrades *)
    mutable records : int;
  }

  let u32 oc v =
    output_char oc (Char.chr ((v lsr 24) land 0xFF));
    output_char oc (Char.chr ((v lsr 16) land 0xFF));
    output_char oc (Char.chr ((v lsr 8) land 0xFF));
    output_char oc (Char.chr (v land 0xFF))

  let record t kind (body : bytes) =
    u32 t.oc (1 + Bytes.length body);
    output_char t.oc kind;
    output_bytes t.oc body;
    t.records <- t.records + 1

  let create (oc : out_channel) : t =
    output_string oc magic;
    { oc; announced = Hashtbl.create 8; records = 0 }

  let to_file (path : string) : t * (unit -> unit) =
    let oc = open_out_bin path in
    (create oc, fun () -> close_out oc)

  (** [append t mem fmt addr] writes the struct at [addr], preceded by
      [fmt]'s descriptor if this journal has not seen it yet. *)
  let append (t : t) (mem : Memory.t) (fmt : Format.t) (addr : int) : unit =
    let blob = Format_codec.encode fmt in
    if not (Hashtbl.mem t.announced blob) then begin
      record t kind_descriptor (Bytes.of_string blob);
      Hashtbl.replace t.announced blob ()
    end;
    record t kind_message (Pbio.message mem fmt addr)

  let record_count t = t.records
end

(* ------------------------------------------------------------------ *)
(* Reader                                                               *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  type t = {
    ic : in_channel;
    receiver : Pbio.Receiver.t;
  }

  let create (ic : in_channel) (registry : Format.Registry.t)
      (mem : Memory.t) : t =
    let m =
      try really_input_string ic (String.length magic)
      with End_of_file -> journal_error "not a journal: file too short"
    in
    if not (String.equal m magic) then journal_error "bad journal magic %S" m;
    { ic; receiver = Pbio.Receiver.create registry mem }

  let of_file (path : string) (registry : Format.Registry.t)
      (mem : Memory.t) : t * (unit -> unit) =
    let ic = open_in_bin path in
    match create ic registry mem with
    | t -> (t, fun () -> close_in ic)
    | exception e ->
      close_in_noerr ic;
      raise e

  (* A length prefix that stops short is a torn tail, not a clean end:
     only 0 bytes before EOF counts as end-of-journal. Every failure
     reports the byte offset of the record it was parsing so a torn or
     corrupt file points at its own damage. *)
  let read_u32_opt ic ~at =
    match input_char ic with
    | exception End_of_file -> None
    | c0 ->
      let rest =
        try really_input_string ic 3
        with End_of_file ->
          journal_error
            "journal truncated in record length prefix at byte %d" at
      in
      Some
        ((Char.code c0 lsl 24)
        lor (Char.code rest.[0] lsl 16)
        lor (Char.code rest.[1] lsl 8)
        lor Char.code rest.[2])

  (** [next t] returns the next message as [(format, address)] in the
      reader's memory, ingesting descriptor records transparently.
      [None] at a clean end of file; raises {!Journal_error} (naming
      the byte offset of the offending record) on a truncated or
      corrupt journal. *)
  let rec next (t : t) : (Format.t * int) option =
    let at = pos_in t.ic in
    match read_u32_opt t.ic ~at with
    | None -> None
    | Some len ->
      if len < 1 || len > 1 lsl 30 then
        journal_error "bad record length %d at byte %d" len at;
      let body =
        try really_input_string t.ic len
        with End_of_file ->
          journal_error
            "journal truncated mid-record at byte %d (need %d body bytes, \
             have %d)"
            at len
            (pos_in t.ic - at - 4)
      in
      let kind = body.[0] in
      let payload = String.sub body 1 (len - 1) in
      if Char.equal kind kind_descriptor then begin
        (try ignore (Pbio.Receiver.learn t.receiver payload)
         with
        | Journal_error _ as e -> raise e
        | e ->
          journal_error "corrupt descriptor record at byte %d: %s" at
            (Printexc.to_string e));
        next t
      end
      else if Char.equal kind kind_message then
        try Some (Pbio.Receiver.receive t.receiver (Bytes.of_string payload))
        with
        | Journal_error _ as e -> raise e
        | e ->
          journal_error "corrupt message record at byte %d: %s" at
            (Printexc.to_string e)
      else journal_error "unknown record kind %C at byte %d" kind at

  let next_value (t : t) : (Format.t * Value.t) option =
    match next t with
    | None -> None
    | Some (fmt, addr) ->
      Some (fmt, Native.load (Pbio.Receiver.memory t.receiver) fmt addr)

  (** [fold t f acc] replays the whole journal. *)
  let fold (t : t) (f : 'a -> Format.t * Value.t -> 'a) (acc : 'a) : 'a =
    let rec go acc =
      match next_value t with None -> acc | Some ev -> go (f acc ev)
    in
    go acc
end
