(** SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), pure OCaml — the
    keyed-MAC substrate for the relay's authenticated frame mode. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
val finish : ctx -> string
(** The 32-byte raw digest. The context must not be reused after. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val digest_bytes : Bytes.t -> int -> int -> string

val hex : string -> string
(** Lowercase hex of a raw digest. *)

val hmac : key:string -> string -> string
(** [hmac ~key msg] is the 32-byte raw HMAC-SHA256 tag. Keys longer
    than the 64-byte block are hashed first, per RFC 2104. *)

(** {1 Incremental HMAC}

    The same tag over a message fed in pieces, straight from the
    caller's buffers: feeding [a] then [b] gives [hmac ~key (a ^ b)]. *)

type hmac

val hmac_init : key:string -> hmac

val hmac_feed_bytes : hmac -> Bytes.t -> int -> int -> unit
(** [hmac_feed_bytes h buf off len] feeds [len] bytes of [buf] at [off],
    in place. Raises [Invalid_argument] when the window escapes [buf]. *)

val hmac_finish : hmac -> string
(** The 32-byte raw tag. The state must not be reused after. *)

val equal_constant_time : string -> string -> bool
(** Length + content equality without early exit on mismatch — use for
    MAC tag comparison. *)
