(** Binding between typed {!Value.t}s and native in-memory byte images:
    [store] constructs exactly the bytes a C program on that ABI would
    hold; [load] is the inverse.

    Conventions: [char[N]] fields bind from/to strings (truncated at the
    first NUL); dynamic-array control fields may be omitted (filled from
    the array length), and must agree with every array they count;
    strings always store as non-null pointers. *)

open Omf_machine

exception Bind_error of string

val store : Memory.t -> Format.t -> Value.t -> int
(** Allocate a struct block, write the record, return its address. A
    {!Value.Struct} under the format's own names binds by position, any
    other record by name. Allocates nothing. *)

val load : Memory.t -> Format.t -> int -> Value.t
(** Read the struct back as a {!Value.Struct} in declaration field order
    (control fields included) whose [names] is the format's
    {!Format.t.names}: one [values] array per record, nested ones
    included. *)
