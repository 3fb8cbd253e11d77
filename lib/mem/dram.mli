(** Shared DRAM: the single physical store all cores can address.

    Holds the buffer cache. Contents are only ever moved in whole cache
    lines by the private-cache model ({!Pcache}); the raw accessors here
    are cost-free and represent what the memory controller does, not what
    a core does. *)

type t

val create : nblocks:int -> t
(** [create ~nblocks] costs a word per 512 blocks: a block's page, and
    the leaf of the page table that holds it, are allocated on the
    block's first {!write_line}. A block never written reads as zeroes.
    {!release} gives the page back and a later {!write_line} allocates
    a new one, so the pages held follow the blocks in use, not every
    block ever written. *)

val nblocks : t -> int

val observe : t -> Hare_sim.Obs.t -> track:int -> unit
(** Publish cumulative line-read/-write counters on the given observer
    bus, on [track] (the machine's dedicated DRAM track), every 64th
    line move. DRAM has no engine of its own, so the machine hands it
    the engine's bus. *)

(** [read_line t ~block ~line ~dst ~dst_off] copies one 64-byte line out. *)
val read_line : t -> block:int -> line:int -> dst:Bytes.t -> dst_off:int -> unit

(** [snoop_line t ~block ~line ~dst ~dst_off] is {!read_line} that moves
    no counter: a coherent write's hit takes the line's current bytes
    before it merges a partial write, within the snoop it already pays. *)
val snoop_line : t -> block:int -> line:int -> dst:Bytes.t -> dst_off:int -> unit

(** [count_line_read t ~block ~line] is {!read_line} for a reader that
    overwrites the whole line before anyone reads it: the read is checked
    and counted (and published) the same, and no bytes move. *)
val count_line_read : t -> block:int -> line:int -> unit

(** [write_line t ~block ~line ~src ~src_off] copies one 64-byte line in. *)
val write_line : t -> block:int -> line:int -> src:Bytes.t -> src_off:int -> unit

(** [release t ~block] makes [block] read as zeroes by dropping its page
    (a leaf of the page table, once allocated, stays). For a block no
    descriptor can reach any more: a file server releases the blocks it
    frees. It allocates nothing, and a block never written is left as
    it is. A line written back later (a stale dirty line of a private
    cache) brings a zeroed page back with that line in it.
    Raises [Invalid_argument] if [block] is out of range. *)
val release : t -> block:int -> unit

(** [zero_block t ~block] clears a block (block allocation hygiene): it
    is {!release}, so it allocates nothing either. *)
val zero_block : t -> block:int -> unit

(** [zero_range t ~block ~off ~len] clears a byte range of a block
    (truncate-tail hygiene: bytes past a shrunken size must read as
    zero if the file is later extended). *)
val zero_range : t -> block:int -> off:int -> len:int -> unit

(** Raw block access for verification in tests (cost-free, not used by the
    simulated cores). *)
val unsafe_read : t -> block:int -> off:int -> len:int -> string
