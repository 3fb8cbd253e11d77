(** Shared DRAM: the single physical store all cores can address.

    Holds the buffer cache. Contents are only ever moved in whole cache
    lines by the private-cache model ({!Pcache}); the raw accessors here
    are cost-free and represent what the memory controller does, not what
    a core does. *)

type t

val create : nblocks:int -> t
(** [create ~nblocks] costs a word per 512 blocks: a block's page, and
    the leaf of the page table that holds it, are allocated on the
    block's first {!write_line} or {!write_page}. A block never written
    reads as zeroes. {!release} gives the page back and a later write
    allocates a new one, so the pages held follow the blocks in use,
    not every block ever written. *)

val nblocks : t -> int

val observe : t -> Hare_sim.Obs.t -> track:int -> unit
(** Publish cumulative line-read/-write counters on the given observer
    bus, on [track] (the machine's dedicated DRAM track), every 64th
    line move. DRAM has no engine of its own, so the machine hands it
    the engine's bus. *)

(** [read_line t ~block ~line ~dst ~dst_off] copies one 64-byte line out. *)
val read_line : t -> block:int -> line:int -> dst:Bytes.t -> dst_off:int -> unit

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

(** {2 Page access for the private cache}

    {!Pcache} moves many lines of one block per call. It looks the
    block's page up once, moves each line's bytes itself, unchecked, and
    counts each move with {!note_read} or {!note_write} where
    {!read_line} or {!write_line} would have, so the traffic counters
    step in the same order. *)

val read_page : t -> block:int -> Bytes.t
(** [read_page t ~block] is [block]'s page ({!Layout.block_size} bytes)
    to read lines from, or an empty [Bytes.t], which reads as zeroes, if
    the block was never written or was released since. The caller must
    take the page again after anything writes to [block]. Allocates
    nothing. Raises [Invalid_argument] if [block] is out of range. *)

val write_page : t -> block:int -> Bytes.t
(** [write_page t ~block] is [block]'s page to write lines into,
    allocated (zeroed) if the block has none, as on a first
    {!write_line}. Raises [Invalid_argument] if [block] is out of
    range. *)

val note_read : t -> unit
(** Count (and every 64th time publish) one line moved out of DRAM. *)

val note_write : t -> unit
(** Count (and every 64th time publish) one line moved into DRAM. *)
