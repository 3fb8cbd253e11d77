(** The model VFS: the one reference for the POSIX semantics Hare
    promises, shared by the exploration {!Oracle} and the differential
    property tests.

    Pure and immutable: {!apply} returns the next state and leaves its
    argument untouched, so a search backtracks for free and a state can
    key a memo table (through {!bindings}). Operations are path-level:
    the oracle keeps its per-client handles (path and offset) on top.
    There are no open files, so no orphans: once a path is unlinked,
    [Write] and [Read] of it are [ENOENT].

    Directories are never replaced: a rename onto an existing directory
    is [EISDIR], as in both Hare and the Linux baseline. Renaming a
    name onto itself is a no-op once the name exists. *)

type node = File of string  (** contents *) | Dir

type t

type op =
  | Open of { path : string; create : bool }
      (** [create] makes an empty file if none exists (no truncation);
          a directory is [EISDIR] either way *)
  | Write of { path : string; off : int; data : string }
      (** a hole before [off] reads back as zero bytes *)
  | Read of { path : string; off : int }  (** from [off] to the end *)
  | Stat of string
  | Unlink of string  (** a directory is [EISDIR] *)
  | Mkdir of string
  | Rmdir of string  (** [ENOTEMPTY] while the directory has entries *)
  | Rename of { src : string; dst : string }
      (** a file, or a directory with its whole subtree *)
  | Readdir of string

type value =
  | Unit
  | Int of int  (** bytes written, or a file's size from [Stat] *)
  | Data of string  (** bytes read *)
  | Is_dir  (** [Stat] of a directory *)
  | Names of string list  (** [Readdir]: entry names, sorted *)

val init : string list -> t
(** The root plus the given directories (absolute paths, parents
    first). *)

val apply : t -> op -> (value * t, Hare_proto.Errno.t) result
(** [apply t op] is [op]'s result and the state after it; a failed
    operation leaves the state as it was. A lookup through a regular
    file is [ENOTDIR], through a missing name [ENOENT]. *)

val bindings : t -> (string * node) list
(** Every path and its node, sorted by path: equal states give equal
    lists. *)
