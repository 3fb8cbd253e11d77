let block_size = 4096

let line_size = 64

let lines_per_block = block_size / line_size

let line_of_offset off = off / line_size

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Eight-byte moves compiled inline: a 64-byte [Bytes.blit] is a call
   into the C runtime. [Pcache] restates this as its own [move_line],
   which its line loop inlines. *)
let blit_line src src_off dst dst_off =
  for i = 0 to (line_size / 8) - 1 do
    set64u dst (dst_off + (8 * i)) (get64u src (src_off + (8 * i)))
  done

let blocks_for size = if size <= 0 then 0 else ((size - 1) / block_size) + 1

let iter_range blocks ~off ~len access x buf =
  let pos = ref 0 in
  while !pos < len do
    let foff = off + !pos in
    let boff = foff mod block_size in
    let n = Int.min (len - !pos) (block_size - boff) in
    access x ~block:blocks.(foff / block_size) ~off:boff ~len:n buf !pos;
    pos := !pos + n
  done

let lines_touched ~off ~len =
  if len <= 0 then invalid_arg "Layout.lines_touched: empty range";
  if off < 0 || off + len > block_size then
    invalid_arg "Layout.lines_touched: range escapes block";
  (line_of_offset off, line_of_offset (off + len - 1))
