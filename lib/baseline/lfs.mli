(** Shared-memory in-memory file system — the Linux tmpfs/ramfs
    comparator of §5.3.3 and §5.5.

    Runs on the same simulated machine but {e with} hardware coherence
    (all data moves through {!Hare_mem.Pcache.read_coherent} /
    [write_coherent]) and no messaging: one shared object graph, guarded
    by per-directory and per-inode kernel locks whose hold times are what
    limit scalability for concurrent operations in one directory. *)

open Hare_proto

type node

type t

val create :
  engine:Hare_sim.Engine.t ->
  config:Hare_config.Config.t ->
  cores:Hare_sim.Core_res.t array ->
  t

(** All operations take the calling core (costs and data movement are
    charged there) and a cwd string for relative paths; they raise
    [Errno.Error] like the real calls. *)

val open_file :
  t -> core:int -> cwd:string -> string -> Types.open_flags -> node

val close_file : t -> core:int -> node -> unit

val read_file : t -> core:int -> node -> off:int -> len:int -> string

val write_file : t -> core:int -> node -> off:int -> string -> int

val truncate : t -> core:int -> node -> size:int -> unit

val fsync_file : t -> core:int -> node -> unit

val unlink : t -> core:int -> cwd:string -> string -> unit

val mkdir : t -> core:int -> cwd:string -> string -> unit

val rmdir : t -> core:int -> cwd:string -> string -> unit

val rename : t -> core:int -> cwd:string -> string -> string -> unit

val readdir : t -> core:int -> cwd:string -> string -> (string * Types.ftype) list

val stat : t -> core:int -> cwd:string -> string -> Types.attr

val size : node -> int

val syscalls : t -> Hare_stats.Opcount.t
