(** Per-process file-descriptor table.

    Descriptor numbers map to shared {!entry} records; [dup] aliases an
    entry within the process (offset sharing within a process needs no
    server involvement), while [fork] shares entries {e across} processes
    by migrating the offset to the file server (§3.4) — that logic lives
    in {!Client.fork_fds}. *)

open Hare_proto

(** Where a descriptor's offset lives; an exec snapshot carries it as is. *)
type pos = Wire.xfer_pos =
  | Local of int  (** unshared: offset lives here, I/O can be direct. *)
  | Shared  (** shared with another process: offset lives at the server. *)

(** Client-side view of one open description. *)
type file_state = {
  f_ino : Types.ino;
  mutable f_token : Types.fd_token;
      (** refreshed in place after a crashed server forgets the token. *)
  f_flags : Types.open_flags;
  mutable f_pos : pos;
  mutable f_blocks : int array;  (** cached block list (direct mode). *)
  mutable f_size : int;  (** local size view (close-to-open). *)
  f_dirty : (int, unit) Hashtbl.t;  (** blocks to write back on close. *)
  mutable f_wrote : bool;
  mutable f_lease : int;
      (** trailing blocks of [f_blocks] allocated ahead of need (the
          extent lease); 0 unless [alloc_extent > 1]. *)
}

val lease : int array -> int -> int
(** [lease blocks size]: the trailing blocks of [blocks] beyond what
    [size] bytes need. *)

val file_state :
  ino:Types.ino -> token:Types.fd_token -> flags:Types.open_flags ->
  pos:pos -> blocks:int array -> size:int -> file_state
(** A fresh, clean description over the server's block list and size. *)

type pipe_state = {
  p_ino : Types.ino;
  p_token : Types.fd_token;
  p_write : bool;
}

type desc =
  | File of file_state
  | Pipe of pipe_state
  | Console of Wire.console_ref

type entry = { mutable desc : desc; mutable local_refs : int }

type t

val create : unit -> t

(** [alloc t entry] binds the lowest free descriptor number.
    Raises [Errno.Error EMFILE] when the table is full. *)
val alloc : t -> entry -> int

(** [alloc_at t fd entry] binds exactly [fd] (dup2 target; caller closes
    any previous binding first). *)
val alloc_at : t -> int -> entry -> unit

val find : t -> int -> entry option

val find_exn : t -> int -> entry
(** Raises [Errno.Error EBADF]. *)

val remove : t -> int -> unit

val fds : t -> int list

(** [bindings t] returns (fd, entry) pairs, ascending fd. *)
val bindings : t -> (int * entry) list

(** [distinct_entries t] returns each entry record once (dup'd fds share
    records). *)
val distinct_entries : t -> entry list
