(** Shared DRAM: the single physical store all cores can address.

    Holds the buffer cache. Contents are only ever moved in whole cache
    lines by the private-cache model ({!Pcache}); the raw accessors here
    are cost-free and represent what the memory controller does, not what
    a core does. *)

type t

val create : nblocks:int -> t
(** [create ~nblocks] costs two words per 512 blocks: a block's page,
    and the leaf of the page table that holds it, are allocated on the
    block's first {!write_line} or {!write_page}, and the leaf of its
    sharer words (see {!share}) on its first sharer. A page first covers
    only the lines up to the highest one that write asks for; a later
    write past its end replaces it, once, with a whole block that keeps
    its bytes. A block never written, and any line past its page's end,
    reads as zeroes. {!release} gives the page back and a later write
    allocates a new one, so the pages held follow the blocks in use and
    the lines written in them, not every block ever written. *)

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
    frees. It allocates nothing itself (a cache that shares lines of
    the page copies them out first, into cells of its own), and a block
    never written is left as it is. A line written back later (a stale
    dirty line of a private cache) brings a zeroed page back with that
    line in it.
    Raises [Invalid_argument] if [block] is out of range. *)
val release : t -> block:int -> unit

(** [zero_block t ~block] clears a block (block allocation hygiene): it
    is {!release}. *)
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
(** [read_page t ~block] is [block]'s page to read lines from. It may
    be shorter than {!Layout.block_size}, always by whole lines, and is
    empty if the block was never written or was released since: every
    line past its end reads as zeroes. The caller must take the page
    again after anything writes to [block]. Allocates nothing. Raises
    [Invalid_argument] if [block] is out of range. *)

val write_page : t -> block:int -> lines:int -> Bytes.t
(** [write_page t ~block ~lines] is [block]'s page to write lines into,
    at least [lines] lines long (lines [0, lines) can be written). A
    block with no page gets a zeroed one of [lines] lines, as on a first
    {!write_line}; a page too short is replaced by a whole block that
    keeps its bytes, so a page grows at most once. Either way a page
    taken earlier from {!read_page} or {!write_page} may be stale.
    Raises [Invalid_argument] if [block] is out of range or [lines] is
    not in [1, Layout.lines_per_block]. *)

(** {2 Bytes shared with private caches}

    A private cache keeps no copy of a clean line while DRAM holds the
    same bytes: it reads DRAM's. It must therefore take a copy of the
    old bytes of every line it shares before DRAM changes them. DRAM
    keeps, per block, how many caches are on it (and which, when only
    one is), and calls them back before each change it makes
    itself: {!write_line}, and {!release}, {!zero_block} and
    {!zero_range} for the lines of the page they clear. A cache writing
    through {!write_page} calls {!before_write} first. None of this
    counts, charges or emits anything. *)

val attach : t -> (int -> int -> int -> unit) -> int
(** [attach t keep] registers a private cache and returns its id (0, 1,
    ... in order). [keep block first last] is called while lines
    [first, last] of [block] still hold their old bytes, when the cache
    may share lines of the block and is not the writer: it must copy out
    the lines in that range it shares. It must not write DRAM, {!share}
    or {!unshare}. *)

val share : t -> block:int -> id:int -> unit
(** [share t ~block ~id] puts cache [id] on [block]'s word, at the
    latest when a line of the block first turns shared in it; it stays
    on until {!unshare}. Once per block until then. Allocates (once per
    512 blocks) a leaf of sharer words. *)

val unshare : t -> block:int -> id:int -> unit
(** [unshare t ~block ~id] takes cache [id], which shares no line of
    [block] any more, off the block's word. *)

val others_share : t -> block:int -> id:int -> bool
(** Whether a cache other than [id] is on [block]'s word. A cache
    writing several lines of a block back asks once, and calls
    {!before_write} for each line only if so: while no other cache is on
    the word, a write-back costs a test per line. *)

val before_write : t -> block:int -> first:int -> last:int -> id:int -> unit
(** [before_write t ~block ~first ~last ~id]: cache [id] is about to
    write lines [first, last] of [block] through a page from
    {!write_page}. Every other cache on the block's word is called back
    first. Raises [Invalid_argument] if [block] or the lines
    are out of range. *)

val note_read : t -> unit
(** Count (and every 64th time publish) one line moved out of DRAM. *)

val note_write : t -> unit
(** Count (and every 64th time publish) one line moved into DRAM. *)
