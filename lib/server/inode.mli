(** Server-side inode records.

    An inode is owned by exactly one server and only ever touched by that
    server's dispatch loop — Hare's metadata is partitioned, not shared
    (§3.1). The record tracks what §3.2/§3.4 require: the block list, the
    link count, the count of open fd tokens, the unlinked flag (files
    stay readable through open descriptors after unlink), and orphaned
    blocks whose reuse is deferred until the last descriptor closes. *)

type t = {
  lid : int;  (** per-home inode number. *)
  home : int;
      (** the {e logical} home this inode belongs to — its global id is
          [{ server = home; ino = lid }] forever, even when shard
          migration moves the record to another physical server. Under
          static placements this is simply the owning server's id. *)
  ftype : Hare_proto.Types.ftype;
  dist : bool;  (** directories: distributed entries (immutable). *)
  mutable size : int;
  mutable nlink : int;
  mutable blocks : int array;
  mutable open_tokens : int;
  mutable unlinked : bool;
  mutable orphans : int array;  (** truncated blocks awaiting last close. *)
  mutable keep_lease : bool;
      (** a crash forgot descriptors open on this file: one may still
          write into blocks past the size, so no close trims them. *)
  pipe : Pipe_state.t option;
}

val file : lid:int -> home:int -> t

val dir : lid:int -> home:int -> dist:bool -> t

val fifo : lid:int -> home:int -> capacity:int -> t

(** [cut t ~keep] shortens the block list to its first [keep] blocks
    and returns the rest (empty when there is no rest). *)
val cut : t -> keep:int -> int array

val attr : t -> Hare_proto.Types.attr
