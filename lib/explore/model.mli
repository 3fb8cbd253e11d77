(** The model VFS: the one reference for the POSIX semantics Hare
    promises, and the one op vocabulary of the exploration {!Oracle},
    the scenarios' recorded histories and the differential property
    tests.

    Pure and immutable: {!apply} returns the next state and leaves its
    argument untouched, so a search backtracks for free and a state can
    key a memo table (through {!compare}).

    Inode-level: names map to inodes and inodes to contents. A handle
    names an inode and an offset, in the descriptor table of the
    process that opened it; the caller names each handle when it opens
    it. An inode that is unlinked or renamed over while handles name it
    lives on, nameless, until its last handle closes: reads and writes
    through those handles use it.

    Directories are never replaced: a rename onto an existing directory
    is [EISDIR], as in both Hare and the Linux baseline. Renaming a
    name onto itself is a no-op once the name exists. *)

type t

type op =
  | Open of { h : int; path : string; create : bool }
      (** binds handle [h] to the file at [path], at offset 0; [create]
          makes an empty file if none exists (no truncation); a
          directory is [EISDIR] either way, and an [h] that is already
          open is [EBADF] *)
  | Close of int  (** a handle that is not open is [EBADF] in every op *)
  | Write of { h : int; data : string }
      (** at the handle's offset, which advances past [data]; a hole
          before the offset reads back as zero bytes *)
  | Read of int  (** from the handle's offset to the end, its new offset *)
  | Seek of { h : int; off : int }  (** sets the handle's offset *)
  | Stat of string
  | Unlink of string  (** a directory is [EISDIR] *)
  | Mkdir of string
  | Rmdir of string  (** [ENOTEMPTY] while the directory has entries *)
  | Rename of { src : string; dst : string }
      (** a file, or a directory with its whole subtree *)
  | Readdir of string

type value =
  | Unit
  | Fd of int  (** [Open]: the handle it bound *)
  | Int of int
      (** bytes written, a file's size from [Stat], or [Seek]'s offset *)
  | Data of string  (** bytes read *)
  | Is_dir  (** [Stat] of a directory *)
  | Names of string list  (** [Readdir]: entry names, sorted *)

val init : string list -> t
(** The root plus the given directories (absolute paths, parents
    first). *)

val apply :
  t -> proc:int -> op -> (value, Hare_proto.Errno.t) result * t
(** [apply t ~proc op] is [op]'s result and the state after it, with
    [op]'s handles looked up in process [proc]'s descriptor table; a
    failed operation leaves the state as it was. A lookup through a
    regular file is [ENOTDIR], through a missing name [ENOENT]. *)

val compare : t -> t -> int
(** A total order on states: two states compare equal when they have
    the same names, inodes, contents and open handles. *)

val op_to_string : op -> string
(** [op]'s call as a history prints it, e.g. [open(/r.dat, create)],
    [write(h0, 64 bytes)] or [read(h1)]. *)

val result_to_string : (value, Hare_proto.Errno.t) result -> string
(** A result as a history prints it, e.g. [h0], [64], [64 bytes], [ok]
    or [ENOENT]. *)
