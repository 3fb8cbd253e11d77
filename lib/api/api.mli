(** World-independent system-call surface.

    The paper's benchmarks run unmodified on Hare {e and} on Linux
    (§5.1); to reproduce that, our workloads are written against this
    record of system calls, abstract in the process-handle type ['p].
    Three worlds implement it: the Hare stack, the shared-memory Linux
    (tmpfs/ramfs) baseline, and the UNFS3-style loopback-NFS baseline. *)

open Hare_proto

type 'p t = {
  openf : 'p -> string -> Types.open_flags -> int;
  close : 'p -> int -> unit;
  read : 'p -> int -> len:int -> string;
  write : 'p -> int -> string -> int;
  lseek : 'p -> int -> pos:int -> Types.whence -> int;
  dup2 : 'p -> src:int -> dst:int -> int;
  pipe : 'p -> int * int;
  fsync : 'p -> int -> unit;
  ftruncate : 'p -> int -> size:int -> unit;
  unlink : 'p -> string -> unit;
  mkdir : 'p -> dist:bool -> string -> unit;
      (** [dist] is Hare's distributed-directory flag; other worlds
          ignore it. *)
  rmdir : 'p -> string -> unit;
  rename : 'p -> string -> string -> unit;
  readdir : 'p -> string -> (string * Types.ftype) list;
  stat : 'p -> string -> Types.attr;
  exists : 'p -> string -> bool;
  chdir : 'p -> string -> unit;
  fork : 'p -> ('p -> int) -> Types.pid;
  spawn : 'p -> prog:string -> args:string list -> Types.pid;
  waitpid : 'p -> Types.pid -> int;
  wait : 'p -> Types.pid * int;
  kill : 'p -> Types.pid -> int -> unit;
  register_program : string -> ('p -> string list -> int) -> unit;
  compute : 'p -> int -> unit;  (** burn CPU cycles. *)
  random : 'p -> int -> int;  (** deterministic per-process PRNG. *)
  print : 'p -> string -> unit;
  core_of : 'p -> int;
  now_cycles : 'p -> int64;
      (** current simulated clock, for open-loop pacing (0 on Linux). *)
  sleep_until : 'p -> int64 -> unit;
      (** idle (without burning CPU) until the given instant; no-op if it
          is already past, and on Linux. *)
}

(** Convenience wrappers over a ['p t]. *)

val write_all : 'p t -> 'p -> int -> string -> unit

val read_to_eof : 'p t -> 'p -> int -> string
