(* uses the used counterpart of each finding Fixture plants; matching
   [Never_built] does not build it *)
let name = function Fixture.Built -> "built" | Fixture.Never_built -> "never"

let run () =
  let p = { Fixture.read = Fixture.f ~passed:1 (); never_read = 0 } in
  Printf.printf "%s %d\n" (name (Fixture.used ())) p.read
