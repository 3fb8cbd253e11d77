(** Identifiers and attribute records shared by Hare's client libraries
    and file servers. *)

type server_id = int
(** File servers are numbered [0 .. nservers-1]. *)

type client_id = int
(** Client libraries are per-core (Figure 2); the client id is the core id. *)

type fd_token = int
(** Server-issued handle for an open file: the unit of server-side file
    descriptor tracking (§3.4). *)

type pid = int
(** Process ids encode the birth core: [pid = core * 1_000_000 + seq],
    so signal routing needs no shared state. *)

val core_of_pid : pid -> int

val make_pid : core:int -> seq:int -> pid

type ino = { server : server_id; ino : int }
(** Inode name: a (server id, per-server inode number) tuple — unique
    system-wide and allocatable without coordination (§3.6.4). *)

val root_ino : ino
(** The root directory entry lives at a designated server (§3.1). *)

val pp_ino : Format.formatter -> ino -> unit

type ftype = Reg | Dir | Fifo

val pp_ftype : Format.formatter -> ftype -> unit

type attr = {
  a_ino : ino;
  a_ftype : ftype;
  a_size : int;
  a_nlink : int;
  a_dist : bool;  (** directories: entries sharded across all servers. *)
}

type whence = Seek_set | Seek_cur | Seek_end

type open_flags = {
  rd : bool;
  wr : bool;
  creat : bool;
  excl : bool;
  trunc : bool;
  append : bool;
}

val flags_r : open_flags

val flags_w : open_flags
(** creat + trunc + write-only. *)

val flags_rw : open_flags

val flags_a : open_flags
(** creat + append + write-only. *)

(** [dentry_server ~dist ~width ~nservers ~dir ~name] is the server
    holding the directory entry [name] of directory [dir]: the
    directory's home server when centralized; when distributed, one of
    the directory's [width]-server shard set (§3.3; [width = nservers]
    is the paper's design, smaller widths are the §6 extension). The
    hash uses the directory's {e inode number}, so renaming a parent
    never re-hashes its entries. *)
val dentry_server :
  dist:bool -> width:int -> nservers:int -> dir:ino -> name:string -> server_id

(** [shard_servers ~dist ~width ~nservers ~dir] is the full set of
    servers that may hold entries of [dir] — the targets of readdir and
    rmdir fan-out. *)
val shard_servers :
  dist:bool -> width:int -> nservers:int -> dir:ino -> server_id list
