(** Server-side pipe object.

    Pipes live at a file server and are driven by [PIPE_READ]/[PIPE_WRITE]
    RPCs. A server must never block its dispatch loop, so operations that
    cannot complete park a continuation here; state changes (new data,
    new space, an end closing) pump the parked queues. This is how Hare
    supports the shared pipe that make's jobserver requires (§5.2). *)

type t

val create : capacity:int -> t

(** [add_reader t] / [add_writer t] register one more share of an end
    (pipe creation, fork, exec transfer). *)
val add_reader : t -> unit

val add_writer : t -> unit

(** [close_reader t] / [close_writer t] drop one share; reaching zero
    wakes parked peers (EOF for readers, EPIPE for writers). *)
val close_reader : t -> unit

val close_writer : t -> unit

(** [read t ~len k] delivers up to [len] buffered bytes to [k] as soon as
    any are available; [k (Ok "")] signals EOF (no buffered data and no
    open writers), [k (Error EIO)] that the server crashed while the read
    was parked. *)
val read : t -> len:int -> ((string, Hare_proto.Errno.t) result -> unit) -> unit

(** [write t data k] appends [data] once there is space; [k] receives the
    byte count or [EPIPE] if no read end remains. Writes of a chunk are
    atomic (the chunk is never interleaved with another writer's). *)
val write : t -> string -> ((int, Hare_proto.Errno.t) result -> unit) -> unit

val parked : t -> int
(** Reads and writes parked on the pipe. *)

(** [abort_parked t] fails every parked read and write with [EIO] and
    clears both queues (server crash); returns how many were aborted. *)
val abort_parked : t -> int
