type body = Process.t -> string list -> int

type t = body Hare_sim.Tbl.Str.t

let create () = Hare_sim.Tbl.Str.create 32

let register t name body = Hare_sim.Tbl.Str.replace t name body

let find t name = Hare_sim.Tbl.Str.find_opt t name
