(** Per-server partition of the shared buffer cache (§3.2).

    Each file server owns a contiguous range of DRAM blocks and allocates
    them to its files; when a server runs out it reports [None]. Blocks
    can change hands: {!donate}/{!adopt} move free blocks to a peer
    (block stealing, {!Steal}), {!export}/{!adopt_allocated} move in-use
    ones with a migrating home. *)

type t

val create : first:int -> count:int -> t

val available : t -> int

(** [alloc_many t n] takes [n] blocks, all-or-nothing. *)
val alloc_many : t -> int -> int array option

val free : t -> int -> unit

val free_many : t -> int array -> unit

(** [donate t n] removes up to [n] free blocks from this partition so
    another server can adopt them (block stealing, §3.2). *)
val donate : t -> int -> int array

(** [adopt t blocks] adds blocks stolen from another partition to this
    server's free list; they remain addressable (same DRAM), and this
    server now owns them. *)
val adopt : t -> int array -> unit

(** [export t blocks] relinquishes in-use blocks to another server
    (shard migration): they leave this partition's allocated set without
    entering its free list, and in-range exported blocks no longer
    belong to this partition, nor count in a crash [rebuild], until
    re-adopted. The data
    itself never moves — only ownership does. *)
val export : t -> int array -> unit

(** [adopt_allocated t blocks] takes ownership of blocks that are
    already backing a migrated inode: they become owned {e and}
    allocated here (unlike {!adopt}, which receives free blocks). *)
val adopt_allocated : t -> int array -> unit

(** [rebuild t ~live] reconstructs the free list after a crash: every
    block of the partition not in [live] (the set referenced by surviving
    inodes) becomes free again. Returns the number of previously-allocated
    blocks that were reclaimed. *)
val rebuild : t -> live:(int, unit) Hashtbl.t -> int
