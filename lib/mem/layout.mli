(** Memory geometry shared by the DRAM and private-cache models. *)

val block_size : int
(** Buffer-cache block size in bytes (4096, as in most file systems). *)

val line_size : int
(** Cache-line size in bytes (64). *)

val lines_per_block : int


val lines_touched : off:int -> len:int -> int * int
(** [lines_touched ~off ~len] is the inclusive range [(first, last)] of
    line indices within a block covered by the byte range.
    Raises [Invalid_argument] if the range escapes the block or is empty. *)
