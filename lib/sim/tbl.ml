module Make (K : sig
  type t

  val equal : t -> t -> bool
end) =
Hashtbl.Make (struct
  include K

  let hash = Hashtbl.hash
end)

module Int = Make (Int)

module Str = Make (String)
