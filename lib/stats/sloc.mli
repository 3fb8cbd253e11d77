(** Source-line counting for the Figure 4 component-size table. *)

val count_file : string -> int
(** Non-blank lines of one file; 0 if it cannot be read. *)

val sources : string -> string list
(** Every [.ml]/[.mli] file under a directory (recursively), sorted. *)

val count_tree : string -> int
(** Sum over {!sources}. *)

val repo_root : unit -> string option
(** Nearest ancestor of the current directory containing
    [dune-project]. *)
