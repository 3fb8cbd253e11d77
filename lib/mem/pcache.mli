(** Per-core private cache over the shared DRAM — {e without} coherence.

    This is the crux of the simulated hardware: each core's reads and
    writes of buffer-cache blocks go through its private cache, which
    holds {e real bytes} with dirty bits. A write is invisible to other
    cores until the line is written back (explicitly, or incidentally by a
    dirty eviction); a read may return a stale copy cached before another
    core's write-back. Hare's close-to-open protocol — invalidate on
    [open], write back on [close]/[fsync] — is therefore {e functionally
    necessary}: tests that omit it observe stale data, exactly as on the
    paper's target machines.

    {b Bytes stored once.} Every call returns what a cache with its own
    copy of every line would, but a clean line whose bytes DRAM still
    holds keeps no copy: it is {e shared}, and reads DRAM's page. A line
    is {e private}, with its bytes in a 64-byte cell of the cache's pool,
    once a non-coherent write makes it dirty, or once DRAM is about to
    change bytes it shares: a write-back of another cache, a coherent
    write of another cache, {!Dram.write_line}, {!Dram.release},
    {!Dram.zero_block} or {!Dram.zero_range} first has it copy them out
    ({!Dram.attach}). Fills, coherent accesses and {!writeback_block}
    leave a line shared. None of this moves a counter, a cycle or a bus
    event.

    All operations charge cycle costs to the owning core: each call sums
    its cache and DRAM cycles and pays them in one [Core_res.compute].

    {b Order contract.} The schedule explorer, the coherence sanitizer
    and the DRAM traffic counters observe the calls below through the
    engine's observer bus, so their order is part of the model and must
    not change with the implementation:
    - an access visits its lines in ascending order. For each line it
      first brings the line in, then emits [Cache_access], then moves
      the bytes;
    - a miss counts the miss, then at capacity evicts the least recently
      used line (write-back of a dirty victim: [Dram.note_write],
      [Cache_writeback]; then the eviction count and [Cache_evict]), then
      fills the line ([Dram.note_read]);
    - a coherent access moves each line through DRAM after its
      [Cache_access]: [Dram.note_write] for a write, [Dram.note_read]
      for a read of a clean line (a dirty one is served as it is);
    - {!invalidate_block}, {!evict_block} and {!writeback_block} visit
      the block's resident lines from the highest index down; an
      eviction writes a dirty line back ([Cache_writeback]) before it
      drops it ([Cache_invalidate]).

    Recency is kept per line, not per block. *)

type t

type stats = {
  hits : int;  (** lines served from the private cache. *)
  misses : int;  (** lines fetched from DRAM. *)
  evictions : int;  (** lines displaced by capacity. *)
  writebacks : int;  (** dirty lines flushed to DRAM (incl. evictions). *)
  invalidated : int;  (** lines dropped by explicit invalidation. *)
}

val create :
  ?block_socket:(int -> int) ->
  Dram.t ->
  core:Hare_sim.Core_res.t ->
  costs:Hare_config.Costs.t ->
  capacity_lines:int ->
  t
(** [block_socket] maps a block number to the NUMA socket holding it;
    accesses to blocks on another socket pay [dram_cross_socket_line]
    extra per line. Defaults to the core's own socket (no NUMA effect).
    The cache attaches itself to the DRAM ({!Dram.attach}), which keeps
    it for the DRAM's lifetime. *)

val core : t -> Hare_sim.Core_res.t

val key_of : block:int -> line:int -> int
(** The per-line shadow key ([block * Layout.lines_per_block + line])
    used by the coherence sanitizer; exposed so protocol lint sites can
    name the lines of a block. *)

(** [read t ~block ~off ~len ~dst ~dst_off] reads through the cache.
    The byte range must lie within one block. *)
val read : t -> block:int -> off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit

(** [write t ~block ~off ~len ~src ~src_off] writes into the cache
    (write-allocate; lines become dirty, DRAM is {e not} updated). *)
val write :
  t -> block:int -> off:int -> len:int -> src:Bytes.t -> src_off:int -> unit

val read_string : t -> block:int -> off:int -> len:int -> string

val write_string : t -> block:int -> off:int -> string -> unit

(** [invalidate_block t block] drops every cached line of [block],
    {e discarding} dirty data: for a block whose cached lines belong to
    another file (a block freshly allocated to this one). *)
val invalidate_block : t -> int -> unit

(** [evict_block t block] is {!invalidate_block} that writes each dirty
    line back first: close-to-open's open-time invalidation, which must
    keep another descriptor's unflushed writes on this core. [dropped]
    is called with [block] once its lines are gone, before the charge
    lets another fiber on the core run. *)
val evict_block : dropped:(int -> unit) -> t -> int -> unit

(** [writeback_block t block] flushes the dirty lines of [block] to DRAM;
    lines stay resident, clean (and shared). *)
val writeback_block : t -> int -> unit

(** [read_coherent] / [write_coherent] model an access on a machine
    {e with} hardware coherence (used by the Linux/ramfs baseline and by
    a file server's reads and writes for shared descriptors): data
    always moves to/from DRAM so no staleness is possible, at private-
    cache hit cost for resident lines. A partial write to a clean
    resident line merges into DRAM's current bytes, not into the core's
    older copy. A dirty resident line holds this core's newer writes: a
    coherent read returns its bytes and leaves it dirty (no DRAM read is
    counted), and a coherent write merges into it. *)
val read_coherent :
  t -> block:int -> off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit

val write_coherent :
  t -> block:int -> off:int -> len:int -> src:Bytes.t -> src_off:int -> unit

val resident_lines : t -> int

val home_slot : slots:int -> int -> int
(** [home_slot ~slots block] is the slot where a lookup of [block]
    starts in a block directory of [slots] slots (a power of two). The
    directory starts at 16 slots and doubles when more than half full.
    For tests that need blocks whose probes collide. *)

val stats : t -> stats
