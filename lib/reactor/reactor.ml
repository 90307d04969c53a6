(** A single-threaded readiness engine shared by every server stack in
    this repository (relay shards, the embedded httpd, the schema
    registry), and the one place they open their listening sockets
    ({!listener}).

    One reactor owns one [poll(2)] loop ({!Omf_util.Poll}, which takes
    descriptors of any number, where [select] stops at 1023).
    Everything else is built on three primitives:

    - {b interest sets}: file descriptors register read/write callbacks
      and toggle interest without re-registering ({!register},
      {!set_read}, {!set_write});
    - {b a timer wheel}: a binary min-heap of (deadline, seq) pairs with
      lazy cancellation ({!Wheel}, surfaced as {!after} / {!cancel}),
      driving per-connection deadlines and drain timeouts;
    - {b a self-pipe}: {!inject} enqueues a thunk from any thread (or
      any domain) and wakes the loop, which is how accepted sockets are
      handed to relay shards and how other threads ask a loop to shut
      down.

    The loop itself never spawns threads; blocking work belongs to the
    caller's threads, which communicate with the loop via {!inject}. *)

module Log = Omf_util.Log
module Poll = Omf_util.Poll

(** Seconds on the monotonic {!Omf_util.Clock}: deadlines, timers and
    rate limits keep their spacing when the system clock steps. *)
let now () = Float.of_int (Omf_util.Clock.now_us ()) *. 1e-6
[@@inline]
(* inlined, the loop's clock reads stay unboxed: a boxed result cost
   each loop round two words *)

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                          *)
(* ------------------------------------------------------------------ *)

module Wheel = struct
  (** Binary min-heap ordered by (deadline, insertion seq). The seq
      tie-break makes firing order deterministic: two timers due at the
      same instant fire in the order they were scheduled — the property
      [test_reactor.ml] checks against a sorted model. Cancellation is
      lazy: the entry stays in the heap and is skipped when it
      surfaces. *)

  type timer = {
    deadline : float;
    seq : int;
    action : unit -> unit;
    mutable live : bool;
  }

  type t = {
    mutable heap : timer array;  (** [heap.(0)] is the minimum *)
    mutable size : int;
    mutable next_seq : int;
  }

  let dummy =
    { deadline = 0.0; seq = -1; action = ignore; live = false }

  let create () = { heap = Array.make 16 dummy; size = 0; next_seq = 0 }

  let before a b =
    a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

  let swap h i j =
    let tmp = h.heap.(i) in
    h.heap.(i) <- h.heap.(j);
    h.heap.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before h.heap.(i) h.heap.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && before h.heap.(l) h.heap.(!smallest) then smallest := l;
    if r < h.size && before h.heap.(r) h.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let schedule (h : t) ~(at : float) (action : unit -> unit) : timer =
    let t = { deadline = at; seq = h.next_seq; action; live = true } in
    h.next_seq <- h.next_seq + 1;
    if h.size = Array.length h.heap then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.heap 0 bigger 0 h.size;
      h.heap <- bigger
    end;
    h.heap.(h.size) <- t;
    h.size <- h.size + 1;
    sift_up h (h.size - 1);
    t

  let cancel (t : timer) : unit = t.live <- false

  let pop_min h =
    let min = h.heap.(0) in
    h.size <- h.size - 1;
    h.heap.(0) <- h.heap.(h.size);
    h.heap.(h.size) <- dummy;
    if h.size > 0 then sift_down h 0;
    min

  (** Drop cancelled entries off the top so [next_deadline] reflects a
      live timer. *)
  let rec prune h =
    if h.size > 0 && not h.heap.(0).live then begin
      ignore (pop_min h);
      prune h
    end

  let next_deadline (h : t) : float option =
    prune h;
    if h.size = 0 then None else Some h.heap.(0).deadline

  (** [fire h ~now] runs every live timer with [deadline <= now], in
      (deadline, seq) order, and returns how many fired. Actions run
      after the timer is removed, so an action rescheduling itself is
      fine. *)
  let fire (h : t) ~(now : float) : int =
    let fired = ref 0 in
    prune h;
    while h.size > 0 && h.heap.(0).deadline <= now do
      let t = pop_min h in
      t.live <- false;
      incr fired;
      t.action ();
      prune h
    done;
    !fired
end

type timer = Wheel.timer

(* ------------------------------------------------------------------ *)
(* Registrations                                                        *)
(* ------------------------------------------------------------------ *)

type registration = {
  r_fd : Unix.file_descr;
  mutable r_read : bool;
  mutable r_write : bool;
  r_on_readable : unit -> unit;
  r_on_writable : unit -> unit;
  mutable r_active : bool;
  mutable r_listed : bool;
      (** [r_read] and [r_write] match the interest [poll] was last
          given ([r_in_reads], [r_in_writes]); a registration that does
          not is counted in [r_loop.unlisted] *)
  mutable r_in_reads : bool;  (** polled for reading *)
  mutable r_in_writes : bool;  (** polled for writing *)
  r_loop : t;
}

and t = {
  wheel : Wheel.t;
  regs : (Unix.file_descr, registration) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mu : Mutex.t;  (** guards [injected] and [stop_requested] writes *)
  mutable injected : (unit -> unit) Queue.t;
  mutable running_injected : (unit -> unit) Queue.t;
      (** the batch {!run_injected} is running; swapped with
          [injected] under [mu], so a round allocates no queue *)
  deferred : (unit -> unit) Queue.t;  (** loop-thread only *)
  scratch : Bytes.t;  (** shared read buffer for this loop's conns *)
  gather : Bytes.t;
      (** shared write-coalescing buffer: {!Conn}'s flush loop copies
          small adjacent queue slices here so one [Unix.write] covers
          them. Distinct from [scratch] because a Chunks-mode read
          callback may be borrowing [scratch] while a doom-triggered
          opportunistic flush runs. *)
  mutable queued : int;
      (** unwritten bytes across the write queues of the {!Conn}s
          attached to this loop; only [Conn] moves it ({!add_queued}) *)
  mutable on_queued : int -> unit;  (** sees every new [queued] *)
  mutable stop_requested : bool;
  mutable running : bool;
  mutable pollfds : Poll.t;
      (** the interest [poll] gets: [wake_r] at entry 0, then each
          registration with any interest *)
  mutable polled : registration array;
      (** [polled.(i)] owns entry [i] of [pollfds], for [0 < i < npolled];
          the other slots hold [polled.(0)], which is never dispatched *)
  mutable npolled : int;
  mutable unlisted : int;
      (** registrations whose interest differs from [pollfds], plus
          any deregistered one still in it: when nonzero, the array is
          refilled before the next [poll]. A flag set and cleared again
          within one round (a write queue filled and flushed at once)
          leaves it as it is. *)
}

let create () : t =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let pollfds = Poll.create 64 in
  Poll.set pollfds 0 wake_r Poll.readable;
  let t =
    { wheel = Wheel.create ()
    ; regs = Hashtbl.create 64
    ; wake_r
    ; wake_w
    ; mu = Mutex.create ()
    ; injected = Queue.create ()
    ; running_injected = Queue.create ()
    ; deferred = Queue.create ()
    ; scratch = Bytes.create 65536
    ; gather = Bytes.create 65536
    ; queued = 0
    ; on_queued = ignore
    ; stop_requested = false
    ; running = false
    ; pollfds
    ; polled = [||]
    ; npolled = 1
    ; unlisted = 0 }
  in
  (* the filler of [polled]: the wake pipe, never registered *)
  let wake =
    { r_fd = wake_r; r_read = true; r_write = false; r_on_readable = ignore
    ; r_on_writable = ignore; r_active = false; r_listed = true
    ; r_in_reads = true; r_in_writes = false; r_loop = t }
  in
  t.polled <- Array.make 64 wake;
  t

let scratch t = t.scratch
let gather t = t.gather

let register (t : t) (fd : Unix.file_descr) ~(on_readable : unit -> unit)
    ~(on_writable : unit -> unit) : registration =
  if Hashtbl.mem t.regs fd then
    invalid_arg "Reactor.register: fd already registered";
  let r =
    { r_fd = fd; r_read = true; r_write = false
    ; r_on_readable = on_readable; r_on_writable = on_writable
    ; r_active = true; r_listed = false; r_in_reads = false
    ; r_in_writes = false; r_loop = t }
  in
  Hashtbl.replace t.regs fd r;
  t.unlisted <- t.unlisted + 1;
  r

(* recount [r] after its interest changed *)
let relist (r : registration) =
  let listed = r.r_read = r.r_in_reads && r.r_write = r.r_in_writes in
  if listed <> r.r_listed then begin
    r.r_listed <- listed;
    r.r_loop.unlisted <- (r.r_loop.unlisted + if listed then -1 else 1)
  end

let set_read (r : registration) (b : bool) =
  if r.r_read <> b then begin
    r.r_read <- b;
    if r.r_active then relist r
  end

let set_write (r : registration) (b : bool) =
  if r.r_write <> b then begin
    r.r_write <- b;
    if r.r_active then relist r
  end

let deregister (t : t) (r : registration) =
  if r.r_active then begin
    r.r_active <- false;
    Hashtbl.remove t.regs r.r_fd;
    (* an unlisted one stays counted; a listed one in the sets is
       counted now, as its fd must leave them *)
    if r.r_listed && (r.r_in_reads || r.r_in_writes) then
      t.unlisted <- t.unlisted + 1
  end

let fd_count (t : t) = Hashtbl.length t.regs

(** Unwritten bytes queued on this loop's connections, summed over
    every attached {!Conn} (a detached one counts on no loop). *)
let queued_bytes (t : t) = t.queued

(** Install the hook that sees each new {!queued_bytes} total, called
    synchronously from the {!Conn} operation that moved it (enqueue,
    write, shed, close, detach, adopt). Set it once, before {!run}. *)
let set_on_queued (t : t) (fn : int -> unit) = t.on_queued <- fn

(** [Conn]'s side of {!queued_bytes}: move the sum by [delta]. *)
let add_queued (t : t) (delta : int) =
  if delta <> 0 then begin
    t.queued <- t.queued + delta;
    t.on_queued t.queued
  end

let after (t : t) (delay_s : float) (action : unit -> unit) : timer =
  Wheel.schedule t.wheel ~at:(now () +. delay_s) action

let cancel (_t : t) (tm : timer) = Wheel.cancel tm

(** Run [fn] on the loop thread after the current dispatch round —
    loop-thread callers only (used for close sweeps that must not
    invalidate state mid-dispatch). *)
let defer (t : t) (fn : unit -> unit) = Queue.add fn t.deferred

let wake (t : t) =
  (* best-effort single byte; a full pipe already guarantees a wakeup *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | EPIPE | EBADF), _, _)
  -> ()

(** Thread-safe (and domain-safe): enqueue [fn] to run on the loop
    thread and wake the loop. *)
let inject (t : t) (fn : unit -> unit) =
  Mutex.lock t.mu;
  Queue.add fn t.injected;
  Mutex.unlock t.mu;
  wake t

(** Thread-safe: ask the loop to exit after the current round. *)
let stop (t : t) =
  Mutex.lock t.mu;
  t.stop_requested <- true;
  Mutex.unlock t.mu;
  wake t

let drain_wake_pipe (t : t) =
  let junk = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r junk 0 (Bytes.length junk) with
    | n when n = Bytes.length junk -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

let run_injected (t : t) =
  Mutex.lock t.mu;
  let pending = t.injected in
  t.injected <- t.running_injected;
  t.running_injected <- pending;
  Mutex.unlock t.mu;
  while not (Queue.is_empty pending) do
    (Queue.take pending) ()
  done

let run_deferred (t : t) =
  while not (Queue.is_empty t.deferred) do
    (Queue.pop t.deferred) ()
  done

(** A closed fd slipped into the interest array (a bug in the caller,
    or a race with an external close): deactivate it so poll can make
    progress, rather than spinning on [POLLNVAL]. *)
let prune_bad_fds (t : t) =
  let bad =
    Hashtbl.fold
      (fun fd r acc ->
        match Unix.fstat fd with
        | _ -> acc
        | exception Unix.Unix_error (EBADF, _, _) -> r :: acc)
      t.regs []
  in
  List.iter
    (fun r ->
      Log.warn (fun m -> m "dropping registration for closed fd");
      deregister t r)
    bad

let max_wait = 0.5

(* The loop's clock reads and timer checks below keep every float
   unboxed: a round boxes none unless a timer fires. *)
let timer_due (t : t) (now : float) =
  let h = t.wheel in
  h.Wheel.size > 0 && h.Wheel.heap.(0).Wheel.deadline <= now
[@@inline]

(* how long [poll] may wait: until the next timer, rounded up to a
   whole millisecond so the loop never wakes before it is due, and at
   most [max_wait] *)
let poll_timeout_ms (t : t) =
  let h = t.wheel in
  Wheel.prune h;
  let wait =
    if h.Wheel.size = 0 then max_wait
    else h.Wheel.heap.(0).Wheel.deadline -. now ()
  in
  if wait >= max_wait then int_of_float (max_wait *. 1000.)
  else if wait <= 0.0 then 0
  else int_of_float (Float.ceil (wait *. 1000.))

(* the poll array, refilled only when some registration's interest
   differs from it: a steady loop hands [poll] the same entries *)
let refresh_interest (t : t) =
  if t.unlisted > 0 then begin
    t.unlisted <- 0;
    let need = 1 + Hashtbl.length t.regs in
    if need > Array.length t.polled then begin
      let size = Int.max need (2 * Array.length t.polled) in
      t.pollfds <- Poll.create size;
      Poll.set t.pollfds 0 t.wake_r Poll.readable;
      t.polled <- Array.make size t.polled.(0)
    end;
    let n = ref 1 in
    Hashtbl.iter
      (fun fd r ->
        r.r_in_reads <- r.r_read;
        r.r_in_writes <- r.r_write;
        r.r_listed <- true;
        if r.r_read || r.r_write then begin
          Poll.set t.pollfds !n fd
            ((if r.r_read then Poll.readable else 0)
            lor if r.r_write then Poll.writable else 0);
          t.polled.(!n) <- r;
          incr n
        end)
      t.regs;
    (* drop the registrations that left, so none is kept alive *)
    Array.fill t.polled !n (Int.max 0 (t.npolled - !n)) t.polled.(0);
    t.npolled <- !n
  end

(* dispatch what [poll] found: a write callback for each writable entry,
   then a read callback for each readable one, skipping a registration
   an earlier callback of this round deregistered or took the interest
   from; [true] if an entry's descriptor was not open *)
let dispatch (t : t) =
  let n = t.npolled and p = t.pollfds in
  let bad = ref false in
  for i = 1 to n - 1 do
    let r = t.polled.(i) in
    if Poll.ready p i land Poll.writable <> 0 && r.r_active && r.r_write then
      r.r_on_writable ()
  done;
  for i = 1 to n - 1 do
    let r = t.polled.(i) and ready = Poll.ready p i in
    if ready land Poll.invalid <> 0 then bad := true
    else if ready land Poll.readable <> 0 && r.r_active && r.r_read then
      r.r_on_readable ()
  done;
  !bad

(** The loop: fire due timers, run injected thunks, poll the
    interest array, dispatch writes then reads, then run deferred
    cleanups — until {!stop}. Returns with all injected/deferred work
    drained; registered fds are {e not} closed (owners do that). *)
let run (t : t) =
  if t.running then invalid_arg "Reactor.run: already running";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      while not t.stop_requested do
        let now = now () in
        if timer_due t now then ignore (Wheel.fire t.wheel ~now);
        run_injected t;
        run_deferred t;
        if not t.stop_requested then begin
          let timeout_ms = poll_timeout_ms t in
          refresh_interest t;
          match Poll.wait t.pollfds t.npolled ~timeout_ms with
          | exception Unix.Unix_error (EINTR, _, _) -> ()
          | 0 -> run_deferred t
          | _ ->
            if Poll.ready t.pollfds 0 <> 0 then begin
              drain_wake_pipe t;
              run_injected t
            end;
            if dispatch t then prune_bad_fds t;
            run_deferred t
        end
      done;
      (* final sweep so close/cleanup thunks queued by the last round
         (or by stop itself) still run *)
      run_injected t;
      run_deferred t)

(** Release the wake pipe. Call only after {!run} has returned. *)
let dispose (t : t) =
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

(** How long a listener goes unread after [accept] failed for want of
    descriptors or memory. The loop serves its open connections
    meanwhile, and one of them closing frees what the next accept
    needs; a listener read again at once would spin [poll] on a
    backlog it cannot take. *)
let accept_pause_s = 0.1

(** Register the listening socket [sock] (made non-blocking): each time
    it is readable, accept until it would block and hand each socket to
    [on_accept]. [EINTR] and [ECONNABORTED] (a client gone before its
    accept) retry. Any other error ([EMFILE], [ENFILE], [ENOBUFS],
    [ENOMEM]) is logged and passed to [on_error], and the listener is
    left unread for {!accept_pause_s}. *)
let accept_on (t : t) (sock : Unix.file_descr)
    ~(on_error : Unix.error -> unit) (on_accept : Unix.file_descr -> unit) :
    registration =
  Unix.set_nonblock sock;
  let cell = ref None in
  let rec accept_all () =
    match Unix.accept ~cloexec:true sock with
    | fd, _ ->
      on_accept fd;
      accept_all ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> accept_all ()
    | exception Unix.Unix_error (err, _, _) ->
      Log.warn (fun m ->
          m "accept: %s; listener paused %.0f ms" (Unix.error_message err)
            (accept_pause_s *. 1000.));
      on_error err;
      let reg = Option.get !cell in
      set_read reg false;
      ignore (after t accept_pause_s (fun () -> set_read reg true))
  in
  let reg = register t sock ~on_readable:accept_all ~on_writable:ignore in
  cell := Some reg;
  reg

exception Resolve_error of string

(** [resolve host] is the IPv4 address every socket here binds or dials
    for [host]. A dotted quad parses without a lookup; any other name
    goes through [getaddrinfo], IPv4 stream addresses only, since every
    socket is [PF_INET]. A name with no such address raises
    {!Resolve_error}. *)
let resolve (host : string) : Unix.inet_addr =
  match Unix.inet_addr_of_string host with
  | a when Unix.domain_of_sockaddr (Unix.ADDR_INET (a, 0)) = Unix.PF_INET -> a
  | _ | (exception Failure _) -> (
    match
      Unix.getaddrinfo host ""
        [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
    with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> raise (Resolve_error (Printf.sprintf "unknown host %S" host)))

(** [listener ~port ()] binds and listens on [host:port] (SO_REUSEADDR,
    backlog 64) and returns the socket with the port actually bound
    (useful with [~port:0]). [host] goes through {!resolve} before the
    socket exists, and the socket is closed if [bind] or [listen]
    raises, so a start on a busy port leaks no descriptor. *)
let listener ?(host = "127.0.0.1") ~port () : Unix.file_descr * int =
  let addr = Unix.ADDR_INET (resolve host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock addr;
    Unix.listen sock 64;
    Unix.getsockname sock
  with
  | Unix.ADDR_INET (_, p) -> (sock, p)
  | _ -> (sock, port)
  | exception e ->
    Unix.close sock;
    raise e
