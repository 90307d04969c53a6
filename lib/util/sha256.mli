(** SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), pure OCaml — the
    keyed-MAC substrate for the relay's authenticated frame mode. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
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

(** {1 Incremental HMAC from precomputed midstates}

    A key's inner and outer pad blocks hashed once; each tag under it
    then reuses one caller-owned {!ctx}, fed in pieces straight from the
    caller's buffers, and allocates nothing: [hmac_start k c], then
    [feed_bytes c ...], then [hmac_finish_into k c out off] writes the
    same tag as {!hmac} over the concatenated pieces. *)

type hmac_key

val hmac_key : string -> hmac_key

val hmac_start : hmac_key -> ctx -> unit
(** Reset [c] to the key's inner midstate: what is fed next is the
    message. *)

val hmac_finish_into : hmac_key -> ctx -> Bytes.t -> int -> unit
(** Write the 32-byte tag of the message fed since {!hmac_start} at
    [off]. [c] may be started again after. *)
