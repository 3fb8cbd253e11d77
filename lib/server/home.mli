(** One logical home's record (§3.1) and its crash and restart steps.

    A home owns an inode table, descriptor state and one record per
    directory. A server hosts exactly one home, its own, under every
    static placement; under a shard plan a migration moves whole records
    between servers. *)

type reply = ?payload_lines:int -> Hare_proto.Wire.fs_resp -> unit
(** A request's reply slot; parked work holds it until it can answer. *)

type request =
  (Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.request
(** A received request, with the home and sender its envelope names. *)

module Dtbl : Hashtbl.S with type key = Hare_proto.Types.ino

type ofd = {
  token : int;
  inode : Inode.t;
  mutable refcount : int;  (** processes sharing the descriptor *)
  mutable shared_offset : int option;
      (** present exactly while the descriptor is "shared": the offset
          lives here and all I/O goes through this server *)
  pipe_end : [ `R | `W ] option;
}
(** Server-side open file descriptor state (§3.4). *)

type dir = {
  mutable entries : Hare_proto.Wire.entry_info Hare_sim.Tbl.Str.t;
      (** this home's shard: name -> dentry *)
  mutable fresh : bool;
  mutable lines : int option;
  mutable listing : Hare_proto.Wire.fs_resp;  (** its readdir reply, while [fresh] *)
  mutable clients : Bytes.t Hare_sim.Tbl.Str.t;
      (** invalidation tracking lists (§3.6.1): name -> callback set,
          read through {!iter_clients} *)
  mutable mark : request Queue.t option;  (** rmdir mark (§3.3): the creates it delays *)
  mutable held : bool;  (** rmdir lock, at the directory's own home *)
  lock_waiters : reply Queue.t;
  mutable dead : bool;
      (** a tombstone: this home committed the directory's removal. A
          create can race past the mark window (looked up the parent
          before the removal, arrived after commit); shard servers
          cannot check the remote inode, so the tombstone refuses it.
          Inode ids are never reused, so a tombstone can live forever. *)
}
(** Everything one home keeps for one directory. A record made for a
    mark or a lock, and a tombstone, has no shard: its two tables are
    shared empty stand-ins, never written. *)

type t = {
  hid : int;
  inodes : Inode.t Hare_sim.Tbl.Int.t;  (** lid -> inode *)
  mutable next_lid : int;
  tokens : ofd Hare_sim.Tbl.Int.t;
  mutable next_token : int;
  dirs : dir Dtbl.t;
      (** dir -> its record. Crash answers parked work, and migration
          fires tracking callbacks, in this table's iteration order. *)
}

val create : int -> t

(** {1 The homes a server hosts} *)

type homes = private {
  table : t Hare_sim.Tbl.Int.t;
      (** home id -> record; crash, restart and shard listings walk it,
          in its order *)
  mutable index : t option array;  (** the same, by home id *)
}
(** The homes one physical server hosts. A request's home is resolved
    through the index: one bounds check and one load, allocating
    nothing. *)

val homes : unit -> homes

val host : homes -> t -> unit

val unhost : homes -> int -> unit

val lookup : homes -> int -> t option
(** The record of a hosted home, [None] for any other id. *)

val find : homes -> int -> t
(** As {!lookup}; raises [Not_found] for a home not hosted. *)

val hosts : homes -> int -> bool

val unaddressed : t option
(** What admission resolves a request that names no home to (block
    steals, migration). Its handlers never touch it. *)

val alloc_lid : t -> int
(** The home's next inode number. *)

(** {1 Directory records} *)

val directory : t -> Hare_proto.Types.ino -> dir
(** A directory's record, created bare (no shard) on first use. *)

val gone : dir
(** A tombstone kept in no table. *)

val find_dir : t -> Hare_proto.Types.ino -> dir
(** A directory's record, or {!gone}: one table lookup, creating nothing. *)

val shard : t -> Hare_proto.Types.ino -> dir
(** As {!directory}, with the shard's tables made unless the record is a
    tombstone: the record of a directory about to take an entry. *)

val has_shard : dir -> bool

val shard_find : dir -> string -> Hare_proto.Wire.entry_info option

val shard_set : dir -> string -> Hare_proto.Wire.entry_info -> unit

val shard_remove : dir -> string -> unit

val shard_length : dir -> int

val shard_fold :
  (string -> Hare_proto.Wire.entry_info -> 'a -> 'a) -> dir -> 'a -> 'a
(** In the entry table's ([Tbl.Str]) order, which readdir replies carry
    and clients observe. *)

val readdir : t -> Hare_proto.Types.ino -> reply -> unit
(** Answer one readdir leg for [dir] with this home's entries, listed as
    a fold of the shard builds them (the reverse of {!shard_fold}'s
    order). The listing is built on the first leg after a change and
    reused until the next; a leg to an empty or unchanged shard costs
    one table lookup and allocates nothing. *)

val track : dir -> name:string -> client:int -> unit
(** Register [client] (below 65535) for an invalidation callback on the
    entry [name] of a directory with a shard. Registering twice is
    registering once. *)

val iter_clients : (int -> unit) -> Bytes.t -> unit
(** A callback set's clients, in the order DESIGN.md's "callback order"
    fixes: the order a [Tbl.Int.create 4] that took the same registrations
    as [replace]s iterates in. Invalidations go out in it, each a message
    on the clock. *)

val bury : t -> Hare_proto.Types.ino -> unit
(** Commit a directory's removal: the creates its mark delays, then the
    rmdirs waiting on its lock, lose with [ENOENT], and a bare tombstone
    takes the place of its record. *)

val drop_dir : t -> Hare_proto.Types.ino -> unit
(** Forget a directory's record (mkdir's rollback of a directory no one
    ever saw). *)

(** {1 Descriptor tokens} *)

val mint_token : t -> int
(** The home's next descriptor token. A token carries its home in the
    high bits, so tokens minted by different homes never collide when
    the homes later share a physical server, and {!token_home} reads the
    home off a bare token. *)

val token_home : int -> int
(** The home a token names. *)

(** {1 Crash and restart} *)

val crash : homes -> int
(** Every hosted home's volatile state dies with the server: parked
    creates, lock waiters and pipe I/O are answered [EIO] (each
    directory's creates, then its lock waiters, in one walk over
    [dirs]); descriptors, rmdir locks and invalidation tracking are
    forgotten. Inodes, directory shards, tombstones and block contents
    are DRAM-resident and survive. An
    inode that had descriptors open is marked [keep_lease]: their
    clients still write into the blocks they hold past the size.
    Returns how many parked continuations were aborted. *)

val reclaim : homes -> unit Hare_sim.Tbl.Int.t
(** Restart: no descriptor survived the crash, so orphaned blocks and
    unlinked inodes are dropped. A surviving inode keeps every block it
    holds, an extent lease past its size included. Returns the blocks
    the surviving inodes reference. *)
