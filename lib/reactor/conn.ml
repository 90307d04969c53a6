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

    Write queues hold views, not copies: {!send_body} queues a frame
    body behind a header written into a small buffer the queue entry
    owns, and shares the body's buffer as-is, so fanning one payload
    out to N connections queues N views of a single buffer. The flush
    loop writes large pieces straight from their backing buffers and
    coalesces each run of small adjacent pieces through the reactor's
    gather buffer into a single [Unix.write]. Callers must not mutate a
    buffer after queueing it. A queued view may also borrow another
    connection's input ({!send_view}[ ~lender]): a relayed frame goes
    out straight from the publisher's read buffer. When the lender's
    dispatch returns, each borrower is flushed once and whatever its
    socket did not take is copied into a buffer the queue owns
    ({!settle_loans}), so the copy is paid only by connections that
    fall behind.

    A connection with a sealer ({!set_sealer}: the relay's HMAC links)
    seals each body {!send_body} queues when the flush first reaches
    it — staging it into a gather or writing it — not when it is
    queued: the sealer writes the entry's header (length prefix, nonce,
    tag) in front of the shared body, so sealing copies nothing, runs
    in queue order exactly once per entry, and an entry shed before the
    flush reached it never took a nonce.

    Protocol logic stays in callbacks; the driver never interprets
    frame contents.

    Every change to a queue's unwritten bytes moves its loop's sum with
    it ({!Reactor.queued_bytes}): enqueue, write, shed and close change
    both, {!detach} takes the connection's bytes off its old loop and
    {!adopt} puts them on the new one. *)

module Slice = Omf_util.Slice

module Log = Omf_util.Log

type mode =
  | Frames  (** 4-byte big-endian length prefix, reassembled frames *)
  | Chunks  (** raw reads delivered as-is (HTTP and friends) *)

(* An entry's sealing: whether a nonce is spent on it yet *)
type seal =
  | Plain  (** its bytes go out as queued *)
  | Unsealed  (** the flush seals its header when it first reaches it *)
  | Sealed  (** sealed: it must go out, so it is never shed *)

(* The write queue is a singly linked list threaded through its
   entries and ended by [nil], so queueing, flushing and walking it
   allocate nothing. An entry is at most two pieces, both unboxed: the
   first [hstop] bytes of its own header buffer [hdr], then [buf]'s
   [pos, stop) window. Written entries go back to their connection's
   [spare] list, header buffer and all, and are queued again. The list
   sizes itself: it keeps as many as the most entries queued on the
   connection between two flushes (on a relay subscriber, what one
   read of a publisher fans out to it), so a burst of that size
   allocates none, and a backlog that grew over many flushes is not
   held on to once it is written. *)
type entry = {
  mutable hdr : Bytes.t;  (** the entry's header buffer, kept for reuse *)
  mutable hpos : int;  (** its first unwritten byte *)
  mutable hstop : int;  (** header bytes to write; 0: no header piece *)
  mutable seal : seal;
  mutable buf : Bytes.t;  (** backing buffer of the body piece *)
  mutable pos : int;  (** its first unwritten byte *)
  mutable stop : int;  (** one past its last byte *)
  mutable droppable : bool;  (** sheddable data frame *)
  mutable total : int;  (** both pieces' lengths at enqueue *)
  mutable next : entry;  (** the entry queued after this one, or [nil] *)
}

let rec nil =
  { hdr = Bytes.empty; hpos = 0; hstop = 0; seal = Plain; buf = Bytes.empty
  ; pos = 0; stop = 0; droppable = false; total = 0; next = nil }

(* writes the [header]-byte wire header of a body into [hdr] *)
type sealer = {
  header : int;
  seal_header : Bytes.t -> Bytes.t -> int -> int -> unit;
}

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
  mutable spare : entry;  (** written entries kept for reuse, via [next] *)
  mutable spares : int;  (** their number, at most [burst_max] *)
  mutable burst : int;  (** entries queued since the last flush began *)
  mutable burst_max : int;  (** the most [burst] has been *)
  mutable sealer : sealer option;  (** set once: {!set_sealer} *)
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
  mutable borrowers : t array;
      (** its first [n_borrowers]: the connections that queued slices
          of [inbuf] during the running dispatch; {!settle_loans} ends
          their loans. An array the connection keeps, so lending
          allocates nothing per read *)
  mutable n_borrowers : int;
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

let in_header (e : entry) = e.hpos < e.hstop
let entry_done (e : entry) = e.hpos >= e.hstop && e.pos >= e.stop

(* the bytes of the piece being written *)
let piece_left (e : entry) =
  if in_header e then e.hstop - e.hpos else e.stop - e.pos

(* an entry for a [header]-byte header piece (0: none) and [buf]'s
   [pos, stop) window: a spare one when the connection keeps any *)
let take_entry (c : t) ~droppable ~header ~seal buf pos stop =
  let e = c.spare in
  let e =
    if e == nil then
      { hdr = Bytes.empty; hpos = 0; hstop = 0; seal; buf; pos; stop
      ; droppable; total = 0; next = nil }
    else begin
      c.spare <- e.next;
      c.spares <- c.spares - 1;
      e.next <- nil;
      e
    end
  in
  if Bytes.length e.hdr < header then e.hdr <- Bytes.create header;
  e.hpos <- 0;
  e.hstop <- header;
  e.seal <- seal;
  e.buf <- buf;
  e.pos <- pos;
  e.stop <- stop;
  e.droppable <- droppable;
  e.total <- header + stop - pos;
  e

(* a dequeued entry: keep it for reuse, holding on to no body *)
let release (c : t) (e : entry) =
  e.buf <- Bytes.empty;
  if c.spares < c.burst_max then begin
    e.next <- c.spare;
    c.spare <- e;
    c.spares <- c.spares + 1
  end
  else e.next <- nil

let push (c : t) (e : entry) =
  if c.q_len = 0 then c.head <- e else c.tail.next <- e;
  c.tail <- e;
  c.q_len <- c.q_len + 1;
  c.burst <- c.burst + 1;
  if c.burst > c.burst_max then c.burst_max <- c.burst

let pop (c : t) =
  let e = c.head in
  c.head <- e.next;
  c.q_len <- c.q_len - 1;
  if c.q_len = 0 then c.tail <- nil;
  if e.droppable then c.q_droppable <- c.q_droppable - 1;
  release c e

(* [e]'s header, sealed now if it is due: the flush has reached it *)
let seal_reached (c : t) (e : entry) =
  if e.seal = Unsealed then begin
    (match c.sealer with
    | Some s -> s.seal_header e.hdr e.buf e.pos (e.stop - e.pos)
    | None -> assert false);
    e.seal <- Sealed
  end

(** Pop fully-written (or empty) entries off the queue head. *)
let pop_done (c : t) =
  while c.q_len > 0 && entry_done c.head do
    pop c
  done

(** Consume [n] freshly-written bytes from the queue head, advancing
    per-entry piece cursors and popping completed entries. *)
let advance (c : t) (n : int) =
  let left = ref n in
  while !left > 0 do
    let e = c.head in
    let k = min !left (piece_left e) in
    if in_header e then e.hpos <- e.hpos + k else e.pos <- e.pos + k;
    left := !left - k;
    if entry_done e then pop c
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

(* stage the [rem] bytes of [buf] at [pos] at [filled]: the new fill,
   or [-1 - fill] when staging stops here *)
let stage_piece gbuf filled buf pos rem =
  let cap = Bytes.length gbuf in
  if rem >= gather_threshold && rem > cap - filled then -1 - filled
  else
    let copy = min rem (cap - filled) in
    Bytes.blit buf pos gbuf filled copy;
    if filled + copy = cap then -1 - cap else filled + copy

let rec stage_entries (c : t) gbuf filled e =
  if e == nil then filled
  else begin
    seal_reached c e;
    let f =
      if in_header e then
        stage_piece gbuf filled e.hdr e.hpos (e.hstop - e.hpos)
      else filled
    in
    let f =
      if f < 0 || e.pos >= e.stop then f
      else stage_piece gbuf f e.buf e.pos (e.stop - e.pos)
    in
    if f < 0 then -1 - f else stage_entries c gbuf f e.next
  end

(** Copy queued pieces into [gbuf], starting at the queue head's
    cursor: small pieces (< {!gather_threshold}) always, large pieces
    only when their whole remainder fits in the unfilled capacity —
    stopping at the first large piece that does not fit (written
    zero-copy by the caller's next iteration), at the end of the
    queue, or when [gbuf] is full. Each entry it reaches is sealed
    first, if due. Staging into the preallocated gather buffer
    allocates nothing, and one write per run beats a syscall per
    piece. Returns the bytes staged. *)
let stage_gather (c : t) (gbuf : Bytes.t) : int =
  stage_entries c gbuf 0 c.head

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
  c.burst <- 0;
  let progressed = ref false in
  let continue = ref true in
  while
    !continue
    &&
    (pop_done c;
     c.q_len > 0)
  do
    let e = c.head in
    seal_reached c e;
    let rem = piece_left e in
    (* the gather buffer lives on the reactor; while detached (shard
       handoff) fall back to per-piece writes *)
    match
      match c.loop with
      | Some loop when rem < gather_threshold ->
        let g = Reactor.gather loop in
        write_some c g 0 (stage_gather c g)
      | _ when in_header e -> write_some c e.hdr e.hpos rem
      | _ -> write_some c e.buf e.pos rem
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
  let n = p.n_borrowers in
  if n > 0 then begin
    p.n_borrowers <- 0;
    let bs = p.borrowers in
    let unwritten = ref false in
    for i = 0 to n - 1 do
      let b = bs.(i) in
      b.borrowing <- false;
      if writes_later b && b.reg <> None then writable b;
      if writes_later b && b.q_len > 0 then unwritten := true
    done;
    if !unwritten then begin
      let buf = p.inbuf in
      (* [f e] for every entry [e] queued on a borrower *)
      let each_entry f =
        for i = 0 to n - 1 do
          let b = bs.(i) in
          if writes_later b then begin
            let e = ref b.head in
            while !e != nil do
              f !e;
              e := !e.next
            done
          end
        done
      in
      (* the unwritten span of [buf] the queued pieces view *)
      let lo = ref max_int and hi = ref 0 in
      let span pos stop =
        lo := min !lo pos;
        hi := max !hi stop
      in
      each_entry (fun e -> if e.buf == buf then span e.pos e.stop);
      if !lo < !hi then begin
        let copy = Bytes.sub buf !lo (!hi - !lo) in
        let lo = !lo in
        each_entry (fun e ->
            if e.buf == buf then begin
              e.buf <- copy;
              e.pos <- e.pos - lo;
              e.stop <- e.stop - lo
            end)
      end
    end;
    (* hold on to no connection until the next loan *)
    Array.fill bs 0 n p
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
    match Frame.Decoder.has_frame c.decoder with
    | false -> ()
    | true ->
      let frame = Frame.Decoder.pop c.decoder in
      c.inbuf <- frame.Slice.buf;
      deliver c frame;
      drain_frames home c
    | exception Omf_util.Decode.Error { layer; offset; reason } ->
      let msg = Omf_util.Decode.message layer offset reason in
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
    {!send_view} or {!send_body}[ ~lender], which ends the loan for
    it. *)
let attach (loop : Reactor.t) (fd : Unix.file_descr) ?(mode = Frames)
    ~(on_input : t -> Slice.t -> unit)
    ~(on_close : t -> string -> unit) ?(on_progress = default_on_progress)
    ?(on_decode_error = default_on_decode_error)
    ?(on_bytes = default_on_bytes) () : t =
  Unix.set_nonblock fd;
  let c =
    { fd; mode; decoder = Frame.Decoder.create ()
    ; head = nil; tail = nil; q_len = 0; q_droppable = 0; q_bytes = 0
    ; spare = nil; spares = 0; burst = 0; burst_max = 0; sealer = None
    ; loop = Some loop
    ; reg = None; on_input; on_close; on_progress; on_decode_error; on_bytes
    ; deadline = None; state = Alive; reading = true; inbuf = Bytes.empty
    ; dispatching = false; borrowers = [||]; n_borrowers = 0
    ; borrowing = false }
  in
  let r =
    Reactor.register loop fd
      ~on_readable:(fun () -> readable c)
      ~on_writable:(fun () -> writable c)
  in
  c.reg <- Some r;
  sync_interest c;
  c

(* queue an entry of a [header]-byte header piece and [buf]'s [pos,
   stop) window; a plain header is the window's length prefix *)
let enqueue (c : t) ~droppable ~header ~seal buf pos stop =
  match c.state with
  | Alive ->
    let e = take_entry c ~droppable ~header ~seal buf pos stop in
    if header > 0 && seal = Plain then Frame.write_header e.hdr 0 (stop - pos);
    push c e;
    if droppable then c.q_droppable <- c.q_droppable + 1;
    sync_interest c;
    account c e.total
  | Closing | Doomed _ | Closed _ -> ()

(* [c] borrows [lender]'s running input until its dispatch settles *)
let borrow (c : t) (lender : t option) =
  match lender with
  | Some p when c.state = Alive && not c.borrowing ->
    if not p.dispatching then
      invalid_arg "Conn: lender is not dispatching input";
    c.borrowing <- true;
    let n = p.n_borrowers in
    if n = Array.length p.borrowers then begin
      let grown = Array.make (max 4 (2 * n)) p in
      Array.blit p.borrowers 0 grown 0 n;
      p.borrowers <- grown
    end;
    p.borrowers.(n) <- c;
    p.n_borrowers <- n + 1
  | Some _ | None -> ()

(** Queue the [len] bytes of [buf] at [off], a whole framed wire
    message, as one piece: a relayed frame together with the length
    header it arrived behind. Allocates nothing when the connection
    has a spare entry. With [~lender], the view may borrow [lender]'s
    input (a slice its running [on_input] was handed): at the end of
    that dispatch, [c] is flushed and whatever of the borrowed bytes
    its socket did not take is copied into an owned buffer. *)
let send_view (c : t) ~droppable ?lender (buf : Bytes.t) (off : int)
    (len : int) =
  if len > 0 then
    enqueue c ~droppable ~header:0 ~seal:Plain buf off (off + len);
  borrow c lender

(** Queue the frame body [buf, off, len] (Frames mode) behind a header
    the entry owns: its 4-byte length prefix, or, once {!set_sealer}
    has run, the sealer's header, written when the flush first reaches
    the entry. Allocates nothing when the connection has a spare entry;
    lending works as in {!send_view}. *)
let send_body (c : t) ~droppable ?lender (buf : Bytes.t) (off : int)
    (len : int) =
  (match c.sealer with
  | Some s ->
    enqueue c ~droppable ~header:s.header ~seal:Unsealed buf off (off + len)
  | None ->
    enqueue c ~droppable ~header:Frame.header_length ~seal:Plain buf off
      (off + len));
  borrow c lender

(** Seal every body {!send_body} queues from now on with [seal]: see
    the module comment. Set once. *)
let set_sealer (c : t) ~header seal_header =
  if c.sealer <> None then invalid_arg "Conn.set_sealer: already set";
  c.sealer <- Some { header; seal_header }

(** Queue a length-prefixed frame (Frames mode); [body]'s buffer is
    shared with the queue (ownership transfers — don't mutate it after
    sending). *)
let send (c : t) (body : Bytes.t) =
  send_body c ~droppable:false body 0 (Bytes.length body)

(** Queue raw bytes verbatim (Chunks mode / HTTP responses). Takes
    ownership of [wire]. *)
let send_raw (c : t) (wire : Bytes.t) =
  send_view c ~droppable:false wire 0 (Bytes.length wire)

(** Drop the oldest fully-unwritten droppable entry, if any
    ([Drop_oldest] backpressure). Returns the wire bytes shed (0 when
    nothing was droppable). *)
let drop_oldest_droppable (c : t) : int =
  let untouched e =
    e.seal <> Sealed && e.hstop - e.hpos + e.stop - e.pos = e.total
  in
  let rec find prev e =
    if e == nil then 0
    else if e.droppable && untouched e then begin
      if prev == nil then c.head <- e.next else prev.next <- e.next;
      if c.tail == e then c.tail <- prev;
      c.q_len <- c.q_len - 1;
      c.q_droppable <- c.q_droppable - 1;
      let shed = e.total in
      account c (-shed);
      release c e;
      shed
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
