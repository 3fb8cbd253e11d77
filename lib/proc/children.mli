(** A process's children and their exit notifications: the bookkeeping
    behind [wait] and [waitpid], shared by Hare's processes and the
    Linux baseline's. *)

open Hare_proto

type t

val create : unit -> t

val add : t -> Types.pid -> unit
(** Record a child at its birth. *)

val exited : t -> Types.pid -> int -> unit
(** A child's exit notification, pushed by the child as it exits. *)

val wait : t -> Types.pid * int
(** Reap any child, blocking the calling fiber until one has exited.
    Raises [ECHILD] when there is none. *)

val waitpid : t -> Types.pid -> int
(** Reap child [pid], blocking until it has exited; exits of other
    children seen meanwhile are kept for later waits, in order. Raises
    [ECHILD] when [pid] is not a child. *)
