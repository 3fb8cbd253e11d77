(** The POSIX system-call surface Hare exposes to programs.

    Every call takes the calling {!Hare_proc.Process.t} (the simulated
    equivalent of "the current process") and must run inside that
    process's fiber. File and directory calls delegate to the core's
    client library; process calls implement fork, remote exec with proxy
    processes (§3.5), wait and signals. Errors raise
    {!Hare_proto.Errno.Error}. *)

open Hare_proto
module P := Hare_proc.Process

(** {1 Files} *)

val openf : P.t -> string -> Types.open_flags -> int

val creat : P.t -> string -> int
(** [openf] with create+truncate+write flags. *)

val close : P.t -> int -> unit

val read : P.t -> int -> len:int -> string

val write : P.t -> int -> string -> int

val write_all : P.t -> int -> string -> unit
(** Loop until the whole buffer is written (pipes may take partial
    chunks). *)

val read_all : P.t -> int -> string
(** Read to EOF. *)

val lseek : P.t -> int -> pos:int -> Types.whence -> int

val dup : P.t -> int -> int

val dup2 : P.t -> src:int -> dst:int -> int

val pipe : P.t -> int * int

val fsync : P.t -> int -> unit

val ftruncate : P.t -> int -> size:int -> unit

val fstat : P.t -> int -> Types.attr

(** {1 Name space} *)

val unlink : P.t -> string -> unit

val mkdir : P.t -> ?dist:bool -> string -> unit

val rmdir : P.t -> string -> unit

val rename : P.t -> string -> string -> unit

val readdir : P.t -> string -> Wire.entry list

val stat : P.t -> string -> Types.attr

val exists : P.t -> string -> bool

val chdir : P.t -> string -> unit

val getcwd : P.t -> string

(** {1 Processes} *)

val fork : P.t -> (P.t -> int) -> Types.pid
(** [fork p child] creates a child process {e on the same core} (the
    paper's fork never migrates) running [child]; file descriptors become
    shared (§3.4). Returns the child's pid. *)

val exec : P.t -> prog:string -> args:string list -> int
(** Replace this process: pick a core by the configured policy, ship the
    program name, arguments, environment and descriptor table to that
    core's scheduling server, and turn into a proxy that relays console
    output and signals and finally returns the remote process's exit
    status (§3.5). The caller should return the result as its own
    status. *)

val spawn : P.t -> prog:string -> args:string list -> Types.pid
(** fork + exec. *)

val wait : P.t -> Types.pid * int
(** Wait for any child; raises [ECHILD] if none remain. *)

val waitpid : P.t -> Types.pid -> int

val kill : P.t -> Types.pid -> int -> unit

val exit : P.t -> int -> 'a

val getenv : P.t -> string -> string option

val setenv : P.t -> string -> string -> unit

(** {1 Simulation helpers} *)

val compute : P.t -> int -> unit
(** Burn CPU cycles on the process's core (models application compute,
    e.g. compilation or decompression work). *)

val now_cycles : P.t -> int64
(** Current simulated clock. *)

val sleep_until : P.t -> int64 -> unit
(** Idle (blocked, not computing) until the given instant; returns
    immediately if it is already past. Open-loop workload pacing. *)

val print : P.t -> string -> unit
(** Write to fd 1. *)
