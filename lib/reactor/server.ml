(** One reactor loop on its own thread serving every connection
    accepted on a list of listening sockets. *)

type accept =
  Reactor.t -> Unix.file_descr -> on_close:(Conn.t -> string -> unit) -> Conn.t

type t = {
  loop : Reactor.t;
  listeners : (Unix.file_descr * Reactor.registration) list;
  ports : int list;
  conns : (int, Conn.t) Hashtbl.t;  (** loop-thread only *)
  thread : Thread.t;
  mutable stopped : bool;
}

(* bind every listener, or none: a failed bind closes the ones before it
   and names its own address in the error *)
let bind_all listeners =
  List.fold_left
    (fun bound (host, port, _) ->
      match Reactor.listener ~host ~port () with
      | l -> l :: bound
      | exception e -> (
        List.iter (fun (sock, _) -> Unix.close sock) bound;
        match e with
        | Unix.Unix_error (err, fn, _) ->
          raise (Unix.Unix_error (err, fn, Printf.sprintf "%s:%d" host port))
        | e -> raise e))
    [] listeners
  |> List.rev

let start (listeners : (string * int * accept) list) : t =
  let bound = bind_all listeners in
  let loop = Reactor.create () in
  let conns = Hashtbl.create 16 and next_id = ref 0 in
  let registered =
    List.map2
      (fun (sock, _) (_, _, (accept : accept)) ->
        ( sock
        , Reactor.accept_on loop sock ~on_error:ignore (fun fd ->
              let id = !next_id in
              incr next_id;
              Hashtbl.replace conns id
                (accept loop fd ~on_close:(fun _ _ -> Hashtbl.remove conns id)))
        ))
      bound listeners
  in
  { loop; listeners = registered; ports = List.map snd bound; conns
  ; thread = Thread.create Reactor.run loop; stopped = false }

let ports (s : t) = s.ports

let shutdown (s : t) =
  if not s.stopped then begin
    s.stopped <- true;
    Reactor.inject s.loop (fun () ->
        (* accept nothing more, not even in this round: a client still
           in a backlog is reset when its listener closes below *)
        List.iter (fun (_, reg) -> Reactor.deregister s.loop reg) s.listeners;
        Hashtbl.fold (fun _ c acc -> c :: acc) s.conns []
        |> List.iter (fun c -> Conn.doom c "server shutdown");
        Reactor.stop s.loop);
    Thread.join s.thread;
    List.iter
      (fun (sock, _) -> try Unix.close sock with Unix.Unix_error _ -> ())
      s.listeners;
    Reactor.dispose s.loop
  end
