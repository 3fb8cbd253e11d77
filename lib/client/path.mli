(** Textual path manipulation.

    Hare identifies files by walking directory entries from the root; the
    client library normalizes paths textually ([.], [..], repeated
    slashes) against the process's working directory before resolution,
    so the wire protocol only ever sees clean component lists. *)

val normalize : cwd:string -> string -> string list
(** [normalize ~cwd path] is the component list of [path] resolved
    against absolute directory [cwd]. [".."] at the root stays at the
    root. Raises [Errno.Error EINVAL] if [cwd] is not absolute or [path]
    is empty. *)

val join : string -> string -> string
(** [join cwd path] is the normalized absolute string form. *)

val parent_and_name : string list -> string list * string
(** Splits a non-empty component list into parent components and final
    name. Raises [Errno.Error EINVAL] on the root (empty list). *)

val to_string : string list -> string
