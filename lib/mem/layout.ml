let block_size = 4096

let line_size = 64

let lines_per_block = block_size / line_size

let line_of_offset off = off / line_size

let blocks_for size = if size <= 0 then 0 else ((size - 1) / block_size) + 1

let iter_range blocks ~off ~len access x buf =
  let pos = ref 0 in
  while !pos < len do
    let foff = off + !pos in
    let boff = foff mod block_size in
    let n = min (len - !pos) (block_size - boff) in
    access x ~block:blocks.(foff / block_size) ~off:boff ~len:n buf !pos;
    pos := !pos + n
  done

let lines_touched ~off ~len =
  if len <= 0 then invalid_arg "Layout.lines_touched: empty range";
  if off < 0 || off + len > block_size then
    invalid_arg "Layout.lines_touched: range escapes block";
  (line_of_offset off, line_of_offset (off + len - 1))
