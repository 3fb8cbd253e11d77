(** A FIFO of free buffer-cache block numbers.

    It hands out exactly what an [int Queue.t] filled with a contiguous
    range and then fed by {!push} would, in the same order; the order
    matters because the machine maps a block to a socket, and so to DRAM
    cycles. The range is held as two ints, not one heap cell per block:
    only blocks pushed back (freed, adopted, rebuilt) take a slot in an
    int-array ring. A partition of the 2 GB buffer cache costs its host
    a few words until its blocks are actually used. *)

type t

val create : first:int -> count:int -> t
(** [create ~first ~count] holds the blocks [\[first, first + count)],
    lowest first. [count] may be 0. *)

val length : t -> int

val push : t -> int -> unit
(** [push t b] appends [b] behind everything [t] holds. *)

val pop : t -> int
(** [pop t] removes and returns the oldest block.
    Raises [Invalid_argument] if [t] is empty. *)

val clear : t -> unit
(** [clear t] empties [t], range and ring alike. *)
