(** Memory geometry shared by the DRAM and private-cache models. *)

val block_size : int
(** Buffer-cache block size in bytes (4096, as in most file systems). *)

val line_size : int
(** Cache-line size in bytes (64). *)

val lines_per_block : int

val blit_line : Bytes.t -> int -> Bytes.t -> int -> unit
(** [blit_line src src_off dst dst_off] copies one whole line {e without
    bounds checks}: the caller guarantees both ranges. *)

val blocks_for : int -> int
(** [blocks_for size] is the number of blocks that back [size] bytes. *)

val iter_range :
  int array -> off:int -> len:int ->
  ('a -> block:int -> off:int -> len:int -> Bytes.t -> int -> unit) ->
  'a -> Bytes.t -> unit
(** [iter_range blocks ~off ~len access x buf] walks the byte range
    [\[off, off + len)] of a file laid out in [blocks], one block at a
    time: [access x ~block ~off ~len buf pos] moves the piece at offset
    [off] of [block] to or from [buf] at [pos]. [access] is a per-block
    cache access ([Pcache.read], [Pcache.write_coherent], ...) over the
    cache [x]. *)

val lines_touched : off:int -> len:int -> int * int
(** [lines_touched ~off ~len] is the inclusive range [(first, last)] of
    line indices within a block covered by the byte range.
    Raises [Invalid_argument] if the range escapes the block or is empty. *)
