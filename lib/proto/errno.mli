(** POSIX-style error codes returned by Hare system calls. *)

type t =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EBADF
  | EINVAL
  | EPIPE
  | ENOSPC
  | ESPIPE
  | ECHILD
  | ESRCH
  | EMFILE
  | ENOSYS
  | ENOEXEC
  | EACCES
  | EBUSY
  | EIO
      (** a server was unreachable past the retry budget, crashed while
          holding parked state, or a broadcast could not complete *)
  | EMOVED
      (** the logical home this request addresses no longer lives on the
          contacted physical server (shard migration in progress). Never
          surfaced to applications: the client library re-resolves the
          ring route and retries. Replied {e before} any execution or
          dedup recording, so resending with the same (client, seq) tag
          is always safe. *)

exception Error of t * string
(** Raised by the [*_exn] convenience wrappers; the string names the
    operation and operand. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val raise_errno : t -> string -> 'a
