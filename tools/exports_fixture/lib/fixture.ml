(* An implementation numbers its own items from 0, as its interface does
   (OCaml 5.1): building these must not count for the interface items
   that carry the same ids, [Never_built] among them. *)
type local = Local_a | Local_b | Local_c

type shape = Built | Never_built
type point = { read : int; never_read : int }

let used () =
  ignore [ Local_a; Local_b; Local_c ];
  Built

let uncalled () = ()
let f ?(passed = 0) ?(unpassed = 0) () = passed + unpassed
