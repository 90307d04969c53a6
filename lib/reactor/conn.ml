(** Generic buffered connection driver for reactor-hosted servers.

    A [Conn.t] owns one non-blocking socket on one {!Reactor.t} and
    factors out the plumbing every server used to hand-roll: read
    reassembly (length-prefixed frames via {!Frame.Decoder}, or raw
    chunks for line protocols like HTTP), a bounded write queue with
    partial-write tracking and droppable entries (backpressure
    shedding), graceful close (best-effort flush of queued replies),
    per-connection deadlines on the reactor's timer wheel, and
    {!detach}/{!adopt} to migrate a live connection between reactors
    (relay shard handoff).

    Input has one contract in both modes: the single [on_input]
    callback gets a slice that {e borrows} a buffer the connection
    reuses — a reassembled frame body viewed in the decoder's buffer,
    or a raw read viewed in the reactor's scratch buffer. The borrow is
    valid until the read's dispatch returns; nothing is copied on the
    way in.

    Write queues hold {!Omf_util.Slice} lists (iovec-style wire
    messages), not copies: {!send} frames a body as a fresh 4-byte
    header slice plus the body buffer shared as-is, so fanning one
    payload out to N connections queues N views of a single buffer.
    The flush loop writes large slices straight from their backing
    buffers and coalesces each run of small adjacent slices through
    the reactor's gather buffer into a single [Unix.write]. Callers
    must not mutate a buffer after queueing it. A queued slice may
    also borrow another connection's input ({!send_wire}[ ~lender]): a
    relayed frame goes out straight from the publisher's read buffer.
    When the lender's dispatch returns, each borrower is flushed once
    and whatever its socket did not take is copied into a buffer the
    queue owns ({!settle_loans}), so the copy is paid only by
    connections that fall behind.

    Protocol logic stays in callbacks; the driver never interprets
    frame contents.

    Every change to a queue's unwritten bytes moves its loop's sum with
    it ({!Reactor.queued_bytes}): enqueue, write, shed and close change
    both, {!detach} takes the connection's bytes off its old loop and
    {!adopt} puts them on the new one. *)

module Slice = Omf_util.Slice

let log = Logs.Src.create "omf.reactor.conn" ~doc:"buffered connection driver"

module Log = (val Logs.src_log log)

type mode =
  | Frames  (** 4-byte big-endian length prefix, reassembled frames *)
  | Chunks  (** raw reads delivered as-is (HTTP and friends) *)

(* The write queue is a singly linked list threaded through its
   entries and ended by [nil], so queueing, flushing and walking it
   allocate nothing beyond the entry itself. *)
type entry = {
  mutable rest : Slice.t list;  (** wire slices not yet fully written *)
  mutable off : int;  (** bytes already written of the head of [rest] *)
  droppable : bool;  (** sheddable data frame *)
  total : int;  (** summed slice lengths at enqueue *)
  mutable next : entry;  (** the entry queued after this one, or [nil] *)
}

let rec nil = { rest = []; off = 0; droppable = false; total = 0; next = nil }

type state =
  | Alive
  | Closing  (** flush the queue, then close *)
  | Doomed of string  (** one best-effort flush, close after dispatch *)
  | Closed of string

type t = {
  fd : Unix.file_descr;
  mode : mode;
  decoder : Frame.Decoder.t;
  mutable head : entry;  (** oldest queued entry, [nil] when empty *)
  mutable tail : entry;  (** newest queued entry, [nil] when empty *)
  mutable q_len : int;
  mutable q_droppable : int;
  mutable q_bytes : int;
      (** unwritten bytes across all queued entries; moved only by
          {!account}, which keeps the loop's sum in step *)
  mutable loop : Reactor.t option;  (** [None] while detached *)
  mutable reg : Reactor.registration option;
  mutable on_input : t -> Slice.t -> unit;
  mutable on_close : t -> string -> unit;
  mutable on_progress : t -> unit;
  mutable on_decode_error : t -> string -> unit;
  mutable on_bytes : t -> [ `In | `Out ] -> int -> unit;
  mutable deadline : Reactor.timer option;
  mutable state : state;
  mutable reading : bool;  (** caller's read intent (publisher pause) *)
  mutable inbuf : Bytes.t;
      (** the buffer the slices of the running input dispatch borrow *)
  mutable dispatching : bool;  (** an input dispatch is running *)
  mutable borrowers : t list;
      (** connections that queued slices of [inbuf] during the running
          dispatch; {!settle_loans} ends their loans *)
  mutable borrowing : bool;  (** this connection is in a lender's [borrowers] *)
}

exception Write_failed of string

let alive (c : t) = c.state = Alive
let queued (c : t) = c.q_len
let queued_droppable (c : t) = c.q_droppable
let queued_bytes (c : t) = c.q_bytes

(* the connection will still write its queue: a doomed one never will *)
let writes_later (c : t) =
  match c.state with Alive | Closing -> true | Doomed _ | Closed _ -> false

let sync_interest (c : t) =
  match c.reg with
  | None -> ()
  | Some r ->
    Reactor.set_read r (c.reading && c.state = Alive);
    Reactor.set_write r (c.q_len > 0 && writes_later c)

let clear_deadline (c : t) =
  match (c.deadline, c.loop) with
  | Some tm, Some loop ->
    Reactor.cancel loop tm;
    c.deadline <- None
  | _ -> c.deadline <- None

(* move [c]'s unwritten bytes by [delta], and its loop's sum with them *)
let account (c : t) (delta : int) =
  c.q_bytes <- c.q_bytes + delta;
  match c.loop with Some loop -> Reactor.add_queued loop delta | None -> ()

let close_now (c : t) (reason : string) =
  match c.state with
  | Closed _ -> ()
  | _ ->
    c.state <- Closed reason;
    clear_deadline c;
    (match (c.reg, c.loop) with
    | Some r, Some loop -> Reactor.deregister loop r
    | _ -> ());
    c.reg <- None;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    (* whatever is queued and unwritten dies with the connection *)
    c.head <- nil;
    c.tail <- nil;
    c.q_len <- 0;
    c.q_droppable <- 0;
    account c (-c.q_bytes);
    c.on_close c reason

let entry_done (e : entry) = e.rest = []

let push (c : t) (e : entry) =
  if c.q_len = 0 then c.head <- e else c.tail.next <- e;
  c.tail <- e;
  c.q_len <- c.q_len + 1

let pop (c : t) =
  let e = c.head in
  c.head <- e.next;
  e.next <- nil;
  c.q_len <- c.q_len - 1;
  if c.q_len = 0 then c.tail <- nil;
  if e.droppable then c.q_droppable <- c.q_droppable - 1

(** Pop fully-written (or empty) entries off the queue head. *)
let pop_done (c : t) =
  while c.q_len > 0 && entry_done c.head do
    pop c
  done

(** Consume [n] freshly-written bytes from the queue head, advancing
    per-entry slice cursors and popping completed entries. *)
let advance (c : t) (n : int) =
  let left = ref n in
  while !left > 0 do
    let e = c.head in
    match e.rest with
    | [] -> pop c
    | s :: tl ->
      let rem = Slice.length s - e.off in
      if !left >= rem then begin
        left := !left - rem;
        e.off <- 0;
        e.rest <- tl
      end
      else begin
        e.off <- e.off + !left;
        left := 0
      end
  done;
  pop_done c;
  account c (-n)

(** Pieces at least this long are written straight from their backing
    buffers (zero copy) when they reach the queue head; shorter pieces
    — frame headers, entry tails left by a partial write — are
    coalesced into the reactor's gather buffer. A large piece {e is}
    blended into a gather, but only when it fits whole in the
    remaining capacity: one memcpy into the reused buffer is cheaper
    than the extra syscall, and it keeps a 4-byte header slice from
    ever going out as its own tinygram segment. A large piece is
    never {e split} across a gather boundary — a partially blended
    body would let the staging run fill the buffer to exactly its
    capacity and emit maximal (≈MSS) segments, which parks the
    receiver on its ~40 ms delayed-ACK timer and collapses throughput
    on small-buffer sockets. Stopping at the first oversized piece
    instead preserves the one-small-plus-one-large segment rhythm per
    pump that keeps the peer's TCP stack in immediate-ACK mode. *)
let gather_threshold = 2048

(* stage one entry's pieces, the first [o] bytes in, at [filled]: the
   new fill, or [-1 - fill] when staging stops inside this entry *)
let rec stage_slices gbuf filled o = function
  | [] -> filled
  | (s : Slice.t) :: tl ->
    let cap = Bytes.length gbuf in
    let rem = s.len - o in
    if rem >= gather_threshold && rem > cap - filled then -1 - filled
    else
      let copy = min rem (cap - filled) in
      Bytes.blit s.buf (s.off + o) gbuf filled copy;
      if filled + copy = cap then -1 - cap
      else stage_slices gbuf (filled + copy) 0 tl

let rec stage_entries gbuf filled e =
  if e == nil then filled
  else
    let f = stage_slices gbuf filled e.off e.rest in
    if f < 0 then -1 - f else stage_entries gbuf f e.next

(** Copy queued pieces into [gbuf], starting at the queue head's
    cursor: small pieces (< {!gather_threshold}) always, large pieces
    only when their whole remainder fits in the unfilled capacity —
    stopping at the first large piece that does not fit (written
    zero-copy by the caller's next iteration), at the end of the
    queue, or when [gbuf] is full. Staging into the preallocated
    gather buffer allocates nothing, and one write per run beats a
    syscall per piece. Returns the bytes staged. *)
let stage_gather (c : t) (gbuf : Bytes.t) : int = stage_entries gbuf 0 c.head

(* one write: whether the socket took all [len] bytes *)
let write_some (c : t) buf off len =
  let n = Unix.write c.fd buf off len in
  advance c n;
  c.on_bytes c `Out n;
  n = len

(** Write as much of the queue as the socket accepts right now: large
    slices go straight from their backing buffers, runs of small
    adjacent slices coalesce into one gather write. Raises
    {!Write_failed} on a hard socket error. *)
let flush_step (c : t) : bool =
  let progressed = ref false in
  let continue = ref true in
  while
    !continue
    &&
    (pop_done c;
     c.q_len > 0)
  do
    let e = c.head in
    let s = List.hd e.rest in
    let rem = Slice.length s - e.off in
    (* the gather buffer lives on the reactor; while detached (shard
       handoff) fall back to per-slice writes *)
    match
      match c.loop with
      | Some loop when rem < gather_threshold ->
        let g = Reactor.gather loop in
        write_some c g 0 (stage_gather c g)
      | _ -> write_some c s.buf (s.off + e.off) rem
    with
    | whole ->
      progressed := true;
      if not whole then continue := false
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error (err, _, _) ->
      raise (Write_failed (Unix.error_message err))
  done;
  !progressed

(** Stop reading, try one opportunistic flush (small replies — an error
    frame, say — usually fit the socket buffer), close after the current
    dispatch round. Idempotent; the first reason wins. *)
let doom (c : t) (reason : string) =
  match c.state with
  | Doomed _ | Closed _ -> ()
  | Alive | Closing ->
    c.state <- Doomed reason;
    (try ignore (flush_step c) with Write_failed _ -> ());
    sync_interest c;
    (match c.loop with
    | Some loop -> Reactor.defer loop (fun () -> close_now c reason)
    | None -> close_now c reason)

(** Flush everything queued, then close ("graceful": HTTP responses). *)
let flush_close (c : t) =
  match c.state with
  | Doomed _ | Closed _ | Closing -> ()
  | Alive ->
    if c.q_len = 0 then
      match c.loop with
      | Some loop -> Reactor.defer loop (fun () -> close_now c "done")
      | None -> close_now c "done"
    else begin
      c.state <- Closing;
      c.reading <- false;
      sync_interest c
    end

let writable (c : t) =
  match flush_step c with
  | progressed ->
    if c.q_len = 0 then begin
      match c.state with
      | Closing -> close_now c "done"
      | _ -> sync_interest c
    end
    else sync_interest c;
    if progressed && c.state = Alive then c.on_progress c
  | exception Write_failed msg -> doom c ("write error: " ^ msg)

(** End the loans of [p]'s running input dispatch: flush every
    connection that queued slices of [p]'s input buffer, then copy what
    their sockets did not take — one span of the buffer, shared by
    every borrower — and point their queued slices at the copy. After
    this, [p]'s buffer may be reused. *)
let settle_loans (p : t) =
  match p.borrowers with
  | [] -> ()
  | bs ->
    p.borrowers <- [];
    List.iter
      (fun b ->
        b.borrowing <- false;
        if writes_later b && b.reg <> None then writable b)
      bs;
    let unwritten b = writes_later b && b.q_len > 0 in
    if List.exists unwritten bs then begin
      let buf = p.inbuf in
      (* [f e i start s] for every queued slice [s] (the [i]th of entry
         [e]) viewing [buf], [start] being its first unwritten byte *)
      let each_loan f =
        List.iter
          (fun b ->
            if writes_later b then begin
              let e = ref b.head in
              while !e != nil do
                let e' = !e in
                List.iteri
                  (fun i (s : Slice.t) ->
                    if s.buf == buf then
                      f e' i (if i = 0 then s.off + e'.off else s.off) s)
                  e'.rest;
                e := e'.next
              done
            end)
          bs
      in
      let lo = ref max_int and hi = ref 0 in
      each_loan (fun _ _ start s ->
          lo := min !lo start;
          hi := max !hi (s.off + s.len));
      if !lo < !hi then begin
        let copy = Bytes.sub buf !lo (!hi - !lo) in
        each_loan (fun e i start s ->
            let owned = Slice.make copy (start - !lo) (s.off + s.len - start) in
            e.rest <- List.mapi (fun j x -> if j = i then owned else x) e.rest;
            if i = 0 then e.off <- 0)
      end
    end

let deliver (c : t) (input : Slice.t) =
  try c.on_input c input
  with e ->
    Log.err (fun m ->
        m "input callback raised %s; closing connection"
          (Printexc.to_string e));
    doom c (Printexc.to_string e)

(** Deliver every complete frame buffered in the decoder while the
    connection stays [Alive] on [home], the loop this dispatch runs on.
    A detach mid-loop (shard handoff) stops it at once: the adopting
    loop re-dispatches the rest and owns the connection from then on,
    so this loop reads nothing of it again but its own [loop] write. *)
let rec drain_frames home (c : t) =
  if c.loop == home && c.state = Alive then
    match Frame.Decoder.pop c.decoder with
    | None -> ()
    | Some frame ->
      c.inbuf <- frame.Slice.buf;
      deliver c frame;
      drain_frames home c
    | exception Frame.Frame_error msg ->
      c.on_decode_error c msg;
      doom c msg

(** One input dispatch: hand every complete frame (or, in [Chunks]
    mode, the read itself) to [on_input], then end the loans it made —
    unless a detach already did (see {!detach}). *)
let dispatch_input (c : t) (input : Reactor.t option -> t -> unit) =
  let home = c.loop in
  c.dispatching <- true;
  input home c;
  if c.loop == home then begin
    c.dispatching <- false;
    settle_loans c
  end

let readable (c : t) =
  match c.loop with
  | None -> ()
  | Some loop -> (
    let scratch = Reactor.scratch loop in
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> doom c "peer closed"
    | n -> (
      c.on_bytes c `In n;
      match c.mode with
      | Chunks ->
        if c.state = Alive then begin
          c.inbuf <- scratch;
          dispatch_input c (fun _ c -> deliver c (Slice.make scratch 0 n))
        end
      | Frames ->
        Frame.Decoder.feed c.decoder scratch 0 n;
        dispatch_input c drain_frames)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      doom c ("read error: " ^ Unix.error_message e))

let default_on_bytes _ _ _ = ()
let default_on_progress _ = ()
let default_on_decode_error _ _ = ()

(** [attach loop fd ~on_input ~on_close ()] hosts [fd] on [loop].

    [on_input] receives the input as a slice that {e borrows} a buffer
    the connection reuses: in [Frames] mode (the default) each
    reassembled frame body, a view into the connection's decoder
    buffer; in [Chunks] mode each read, a view into the reactor's
    scratch buffer. The borrow is valid until the read's dispatch
    returns. A callback copies what it keeps longer
    ({!Slice.to_bytes}), or queues it on another connection with
    {!send_wire}[ ~lender], which ends the loan for it. *)
let attach (loop : Reactor.t) (fd : Unix.file_descr) ?(mode = Frames)
    ~(on_input : t -> Slice.t -> unit)
    ~(on_close : t -> string -> unit) ?(on_progress = default_on_progress)
    ?(on_decode_error = default_on_decode_error)
    ?(on_bytes = default_on_bytes) () : t =
  Unix.set_nonblock fd;
  let c =
    { fd; mode; decoder = Frame.Decoder.create ()
    ; head = nil; tail = nil; q_len = 0; q_droppable = 0; q_bytes = 0
    ; loop = Some loop
    ; reg = None; on_input; on_close; on_progress; on_decode_error; on_bytes
    ; deadline = None; state = Alive; reading = true; inbuf = Bytes.empty
    ; dispatching = false; borrowers = []; borrowing = false }
  in
  let r =
    Reactor.register loop fd
      ~on_readable:(fun () -> readable c)
      ~on_writable:(fun () -> writable c)
  in
  c.reg <- Some r;
  sync_interest c;
  c

let enqueue (c : t) ~droppable (wire : Slice.t list) =
  match c.state with
  | Alive ->
    let rest =
      if List.exists Slice.is_empty wire then
        List.filter (fun s -> not (Slice.is_empty s)) wire
      else wire
    in
    let total = Slice.total rest in
    push c { rest; off = 0; droppable; total; next = nil };
    if droppable then c.q_droppable <- c.q_droppable + 1;
    sync_interest c;
    account c total
  | Closing | Doomed _ | Closed _ -> ()

(** Queue a framed wire message (Frames mode) as-is: the slices'
    backing buffers are shared with the queue, never copied. Callers
    must not mutate them afterwards.

    With [~lender], the wire may borrow [lender]'s input (a slice its
    running [on_input] was handed): at the end of that dispatch, [c] is
    flushed and whatever of the borrowed bytes its socket did not take
    is copied into an owned buffer. *)
let send_wire (c : t) ?(droppable = false) ?lender (wire : Slice.t list) =
  enqueue c ~droppable wire;
  match lender with
  | Some p when c.state = Alive && not c.borrowing ->
    if not p.dispatching then
      invalid_arg "Conn.send_wire: lender is not dispatching input";
    c.borrowing <- true;
    p.borrowers <- c :: p.borrowers
  | Some _ | None -> ()

(** Queue a length-prefixed frame (Frames mode). Allocates only the
    4-byte header; [body]'s buffer is shared with the queue (ownership
    transfers — don't mutate it after sending). *)
let send (c : t) (body : Bytes.t) =
  enqueue c ~droppable:false (Frame.wire [ Slice.of_bytes body ])

(** Queue raw bytes verbatim (Chunks mode / HTTP responses). Takes
    ownership of [wire]. *)
let send_raw (c : t) (wire : Bytes.t) =
  enqueue c ~droppable:false [ Slice.of_bytes wire ]

(** Drop the oldest fully-unwritten droppable entry, if any
    ([Drop_oldest] backpressure). Returns the wire bytes shed (0 when
    nothing was droppable). *)
let drop_oldest_droppable (c : t) : int =
  let untouched e = e.off = 0 && Slice.total e.rest = e.total in
  let rec find prev e =
    if e == nil then 0
    else if e.droppable && untouched e then begin
      if prev == nil then c.head <- e.next else prev.next <- e.next;
      if c.tail == e then c.tail <- prev;
      e.next <- nil;
      c.q_len <- c.q_len - 1;
      c.q_droppable <- c.q_droppable - 1;
      account c (-e.total);
      e.total
    end
    else find e e.next
  in
  find nil c.head

(** Pause/resume delivering reads (the relay pauses publishers while a
    subscriber is over its watermark under [Block]). *)
let set_read_intent (c : t) (b : bool) =
  c.reading <- b;
  sync_interest c

(** Arm (or clear) an inactivity deadline: the connection is doomed with
    [reason] if the timer fires. Re-arming cancels the previous timer.
    Deadlines do not survive {!detach}. *)
let set_deadline (c : t) ~reason = function
  | None -> clear_deadline c
  | Some delay_s -> (
    clear_deadline c;
    match c.loop with
    | None -> invalid_arg "Conn.set_deadline: detached"
    | Some loop ->
      c.deadline <- Some (Reactor.after loop delay_s (fun () -> doom c reason)))

(** Unhook from the current reactor, keeping fd, decoder backlog, write
    queue, and callbacks intact. Loop-thread only; the conn is inert
    until {!adopt}. A detach inside the connection's own input dispatch
    ends the loans made so far and moves the decoder backlog to a fresh
    buffer, so the adopting loop never writes over a slice this loop
    still holds. *)
let detach (c : t) =
  (match c.state with
  | Alive -> ()
  | _ -> invalid_arg "Conn.detach: connection not alive");
  if c.borrowing then
    invalid_arg "Conn.detach: connection holds borrowed slices";
  settle_loans c;
  c.dispatching <- false;
  Frame.Decoder.rehome c.decoder;
  clear_deadline c;
  (match (c.reg, c.loop) with
  | Some r, Some loop -> Reactor.deregister loop r
  | _ -> ());
  c.reg <- None;
  Option.iter (fun loop -> Reactor.add_queued loop (-c.q_bytes)) c.loop;
  c.loop <- None

(** Re-register a detached conn on [loop] (called on [loop]'s thread,
    typically from an {!Reactor.inject} thunk). Any frames already
    buffered in the decoder are re-dispatched after the current round. *)
let adopt (loop : Reactor.t) (c : t) =
  if c.reg <> None || c.loop <> None then
    invalid_arg "Conn.adopt: connection still attached";
  (match c.state with
  | Alive -> ()
  | _ -> invalid_arg "Conn.adopt: connection not alive");
  c.loop <- Some loop;
  let r =
    Reactor.register loop c.fd
      ~on_readable:(fun () -> readable c)
      ~on_writable:(fun () -> writable c)
  in
  c.reg <- Some r;
  sync_interest c;
  Reactor.add_queued loop c.q_bytes;
  Reactor.defer loop (fun () -> dispatch_input c drain_frames)
