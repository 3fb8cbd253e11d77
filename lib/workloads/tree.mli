(** Synthetic directory trees (§5.2).

    The dense tree approximates the paper's "2 top-level directories and
    3 sub-levels with 10 directories and 2000 files per sub-level"; the
    sparse tree its "1 top-level directory and 14 sub-levels of
    directories with 2 subdirectories per level". Sizes scale down by
    default so the simulation stays fast; the paper-scale shapes are the
    same. *)

type params = {
  top : int;  (** top-level directories. *)
  levels : int;  (** sub-levels below each top. *)
  dirs_per_level : int;
  files_per_level : int;
  file_bytes : int;
  dist : bool;  (** create directories distributed. *)
}

val dense : scale:int -> params
(** 2 tops, 3 sub-levels, 5 dirs and [20*scale] files per level —
    the paper's 2/3/10/2000 shape, scaled down. *)

val sparse : scale:int -> params
(** 1 top, [6+scale] levels, 2 subdirs per level, 1 file per level. *)

(** [build_dirs api p ~root params] creates only the directory skeleton
    (parents first). *)
val build_dirs : 'p Hare_api.Api.t -> 'p -> root:string -> params -> unit

(** [fill_files api p ~root params ~part ~parts] creates the files of the
    directories owned by partition [part] (ownership by path hash, the
    same partition rm uses). Benchmarks run one filler process per worker
    so file inodes spread across cores exactly as a parallel harness
    would create them. *)
val fill_files :
  'p Hare_api.Api.t -> 'p -> root:string -> params -> part:int -> parts:int -> unit

(** [walk api p ~root] recursively lists [root] (the pfind body),
    stat-ing every entry; returns (dirs visited, files seen). *)
val walk : 'p Hare_api.Api.t -> 'p -> root:string -> int * int

(** [file_data n seed] is deterministic printable content. *)
val file_data : int -> int -> string

(** [count params] is the (directories, files) a [build] of [params]
    creates, excluding the root. *)
val count : params -> int * int

(** [dir_paths params ~root] lists every directory a [build] creates (and
    its depth below [root]) — derivable without any I/O because the tree
    shape is deterministic. *)
val dir_paths : params -> root:string -> (int * string) list

(** [file_paths params ~dir] lists the files [build] puts directly in one
    directory. *)
val file_paths : params -> dir:string -> string list
