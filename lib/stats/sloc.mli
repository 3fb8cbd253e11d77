(** Source-line counting for the Figure 4 component-size table. *)

val count_tree : string -> int
(** Sum over all [.ml]/[.mli] files under a directory (recursively). *)

val repo_root : unit -> string option
(** Nearest ancestor of the current directory containing
    [dune-project]. *)
