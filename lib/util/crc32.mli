(** CRC-32 (IEEE 802.3 / zlib polynomial, reflected, init and final
    xor [0xFFFFFFFF]) over byte ranges. Used by the durable stream
    store to checksum record bodies; table-driven, no dependencies.
    Values are returned in the low 32 bits of an [int] (the OCaml
    [int] is 63-bit on every platform we target). *)

val digest : Bytes.t -> pos:int -> len:int -> int
(** [digest b ~pos ~len] is the CRC-32 of [len] bytes of [b] starting
    at [pos]. Raises [Invalid_argument] if the range is out of
    bounds. *)
