type body = Process.t -> string list -> int

type t = (string, body) Hashtbl.t

let create () = Hashtbl.create 32

let register t name body = Hashtbl.replace t name body

let find t name = Hashtbl.find_opt t name
