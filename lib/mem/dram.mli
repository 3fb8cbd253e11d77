(** Shared DRAM: the single physical store all cores can address.

    Holds the buffer cache. Contents are only ever moved in whole cache
    lines by the private-cache model ({!Pcache}); the raw accessors here
    are cost-free and represent what the memory controller does, not what
    a core does. *)

type t

val create : nblocks:int -> t

val nblocks : t -> int

val observe : t -> Hare_sim.Obs.t -> track:int -> unit
(** Publish cumulative line-read/-write counters on the given observer
    bus, on [track] (the machine's dedicated DRAM track), every 64th
    line move. DRAM has no engine of its own, so the machine hands it
    the engine's bus. *)

(** [read_line t ~block ~line ~dst ~dst_off] copies one 64-byte line out. *)
val read_line : t -> block:int -> line:int -> dst:Bytes.t -> dst_off:int -> unit

(** [count_line_read t ~block ~line] is {!read_line} for a reader that
    overwrites the whole line before anyone reads it: the read is checked
    and counted (and published) the same, and no bytes move. *)
val count_line_read : t -> block:int -> line:int -> unit

(** [write_line t ~block ~line ~src ~src_off] copies one 64-byte line in. *)
val write_line : t -> block:int -> line:int -> src:Bytes.t -> src_off:int -> unit

(** [zero_block t ~block] clears a block (block allocation hygiene). *)
val zero_block : t -> block:int -> unit

(** [zero_range t ~block ~off ~len] clears a byte range of a block
    (truncate-tail hygiene: bytes past a shrunken size must read as
    zero if the file is later extended). *)
val zero_range : t -> block:int -> off:int -> len:int -> unit

(** Raw block access for verification in tests (cost-free, not used by the
    simulated cores). *)
val unsafe_read : t -> block:int -> off:int -> len:int -> string
