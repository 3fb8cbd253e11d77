(** Registry of executable program images.

    The simulation cannot load binaries, so [exec] names a program
    registered here: an OCaml function from (process, argv) to an exit
    status. Standard utilities (the simulated cc, tar, gunzip, ...) and
    benchmark drivers register themselves at machine boot. *)

type body = Process.t -> string list -> int

type t

val create : unit -> t

(** [register t name body] installs a program; re-registering replaces. *)
val register : t -> string -> body -> unit

val find : t -> string -> body option
