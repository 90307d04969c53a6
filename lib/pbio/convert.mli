(** Receiver-side conversion from NDR wire payloads to native memory.

    A plan is compiled once per (wire format, native format) pair — the
    analogue of the paper's dynamic code generation — and executed by a
    tight loop; a coalescing pass merges conversion-free field runs into
    single blits so the homogeneous case degenerates to one copy plus
    pointer fixups, and a same-width array that differs only in byte
    order degenerates to one swap pass. Field matching is by name
    (PBIO's restricted format evolution): wire-only fields are ignored,
    native-only fields stay zero. *)

open Omf_machine

exception Field_mismatch of string
(** Same-named fields that are structurally irreconcilable
    (string vs number, scalar vs array). {!compile}'s message names the
    native format and the field: [format F: field "x": ...]. *)

type t
(** A compiled conversion plan. *)

val compile : wire:Format.t -> native:Format.t -> t
val compile_unoptimized : wire:Format.t -> native:Format.t -> t
(** Same semantics as {!compile}, without blit coalescing or bulk array
    copies — the ablation knob (bench A2). *)

val op_count : t -> int
(** Primitive ops in the plan (1 = pure blit) — exposed so tests can
    assert the homogeneous collapse. *)

val run : t -> bytes -> Memory.t -> int
(** Allocate the destination struct in the memory, execute the plan over
    the payload, return the struct's address. Allocates nothing on the
    OCaml heap beyond the native blocks it builds in the memory. A
    malformed payload (an offset, count or string escaping it) raises
    only [Omf_util.Decode.Error], layer ["ndr"], at the payload offset
    that escaped. *)

val run_sub : t -> bytes -> off:int -> len:int -> Memory.t -> int
(** {!run} over the payload held in [buf.[off..off+len-1]], in place (a
    framed message, with [off] the header length). Offsets inside the
    payload are relative to [off]; nothing outside the window is read. *)

val interpret : wire:Format.t -> native:Format.t -> bytes -> Memory.t -> int
(** Per-record metadata interpretation (no compiled plan): the baseline
    the DCG approach is measured against. Identical semantics. *)
