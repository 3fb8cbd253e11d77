(** Single-assignment synchronization variable.

    The unit of request/response synchronization: an RPC reply slot. Any
    number of fibers may block in {!read}; they all resume once {!fill} is
    called. *)

type 'a t

val create : unit -> 'a t

(** [fill t v] sets the value and wakes all readers.
    Raises [Invalid_argument] if already filled. *)
val fill : 'a t -> 'a -> unit

(** [read t] returns the value, blocking the calling fiber until filled. *)
val read : 'a t -> 'a

(** [read_deadline t ~engine ~cycles] blocks like {!read} but for at most
    [cycles] simulated cycles; returns [None] on timeout. The ivar may
    still be filled later — a stale fill simply lands in the ivar and any
    remaining readers wake normally. Raises [Invalid_argument] if [cycles]
    is negative. *)
val read_deadline : 'a t -> engine:Engine.t -> cycles:int64 -> 'a option

(** [peek t] returns the value if filled, without blocking. *)
val peek : 'a t -> 'a option

val is_filled : 'a t -> bool
