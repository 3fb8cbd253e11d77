(** One logical home's record (§3.1) and its crash and restart steps.

    A home owns an inode table, descriptor state, directory-entry
    shards, invalidation tracking lists and rmdir marks/locks. A server
    hosts exactly one home, its own, under every static placement; under
    a shard plan a migration moves whole records between servers. *)

type reply = ?payload_lines:int -> Hare_proto.Wire.fs_resp -> unit
(** A request's reply slot; parked work holds it until it can answer. *)

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

type mark = { parked : (Hare_proto.Wire.fs_req * reply) Queue.t }
(** An rmdir mark: creates delayed until the removal's outcome is known. *)

type dirlock = { mutable held : bool; lock_waiters : reply Queue.t }

type t = {
  hid : int;
  inodes : Inode.t Hare_sim.Tbl.Int.t;  (** lid -> inode *)
  mutable next_lid : int;
  tokens : ofd Hare_sim.Tbl.Int.t;
  mutable next_token : int;
  dirs : Hare_proto.Wire.entry_info Hare_sim.Tbl.Str.t Dtbl.t;
      (** directory-entry shards: dir -> name -> dentry *)
  tracking : unit Hare_sim.Tbl.Int.t Hare_sim.Tbl.Str.t Dtbl.t;
      (** invalidation tracking lists: dir -> name -> client set *)
  marks : mark Dtbl.t;
  locks : dirlock Dtbl.t;
  dead_dirs : unit Dtbl.t;
      (** tombstones: directories whose removal this home committed. A
          create can race past the mark window (looked up the parent
          before the removal, arrived after commit); shard servers
          cannot check the remote inode, so the tombstone refuses it.
          Inode ids are never reused, so a tombstone can live forever. *)
}

val create : int -> t

val alloc_lid : t -> int
(** The home's next inode number. *)

(** {1 Directory entries and tracking lists} *)

val shard : t -> Hare_proto.Types.ino -> Hare_proto.Wire.entry_info Hare_sim.Tbl.Str.t
(** This home's entries for a directory, created empty on first use. *)

val shard_size : t -> Hare_proto.Types.ino -> int

val find_entry :
  t -> Hare_proto.Types.ino -> string -> Hare_proto.Wire.entry_info option

val track : t -> dir:Hare_proto.Types.ino -> name:string -> client:int -> unit
(** Register [client] for an invalidation callback on [dir]/[name]. *)

val drop_dir : t -> Hare_proto.Types.ino -> unit
(** Forget a removed directory's entries, tracking lists and lock. *)

(** {1 Descriptor tokens} *)

val mint_token : t -> migratory:bool -> int
(** The home's next descriptor token. Under a shard plan ([migratory])
    a token carries its home in the high bits, so tokens minted by
    different homes never collide when the homes later share a physical
    server, and {!token_home} reads the home off a bare token. Static
    placements mint plain counters. *)

val token_home : int -> int
(** The home a token minted under a shard plan names. *)

val busy : t -> bool
(** Whether continuations are parked on the home (rmdir marks and
    locks, blocked pipe I/O). They are bound to this server's endpoint,
    so a busy home cannot be packed for migration. *)

(** {1 Crash and restart} *)

val crash : t Hare_sim.Tbl.Int.t -> int
(** Every hosted home's volatile state dies with the server: parked
    creates, lock waiters and pipe I/O are answered [EIO]; descriptors
    and invalidation tracking are forgotten. Inodes, directory shards,
    tombstones and block contents are DRAM-resident and survive.
    Returns how many parked continuations were aborted. *)

val reclaim : t Hare_sim.Tbl.Int.t -> extent:bool -> (int, unit) Hashtbl.t
(** Restart: no descriptor survived the crash, so orphaned blocks and
    unlinked inodes are dropped and, with extent leases on ([extent]),
    every file is trimmed back to its size. Returns the blocks the
    surviving inodes still reference. *)
