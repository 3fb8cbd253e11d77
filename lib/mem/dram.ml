(* The page table has two levels: a leaf maps [leaf_pages] consecutive
   blocks to their pages and is allocated on the first write to one of
   them. Until then the slot holds [no_leaf], shared by every table, and
   a page never written, or released since, holds [absent]; both read
   as zeroes. A machine keeps a few leaves and the pages of the blocks
   it holds live, not a box per block ever written. *)
let leaf_bits = 9

let leaf_pages = 1 lsl leaf_bits

let absent = Bytes.create 0

let no_leaf = Array.make leaf_pages absent

type t = {
  nblocks : int;
  leaves : Bytes.t array array;
  (* Observer bus + counter track; DRAM itself has no engine, so the
     machine hands over the engine's bus at boot. *)
  mutable obs : Hare_sim.Obs.t;
  mutable track : int;
  mutable line_reads : int;
  mutable line_writes : int;
}

let create ~nblocks =
  if nblocks <= 0 then invalid_arg "Dram.create: nblocks must be positive";
  {
    nblocks;
    leaves = Array.make (((nblocks - 1) lsr leaf_bits) + 1) no_leaf;
    obs = Hare_sim.Obs.create ();
    track = 0;
    line_reads = 0;
    line_writes = 0;
  }

let observe t obs ~track =
  t.obs <- obs;
  t.track <- track

(* Publish the cumulative traffic counters every 64th line move so the
   DRAM track stays readable (and the trace ring is not flooded). *)
let sample_period = 64

let counter t name value =
  if
    value mod sample_period = 0
    && t.obs.Hare_sim.Obs.wanted land Hare_sim.Obs.marks <> 0
  then
    Hare_sim.Obs.emit t.obs
      (Counter { name; track = t.track; ts = Hare_sim.Obs.now t.obs; value })

let note_read t =
  t.line_reads <- t.line_reads + 1;
  counter t "dram-reads" t.line_reads

let note_write t =
  t.line_writes <- t.line_writes + 1;
  counter t "dram-writes" t.line_writes

let nblocks t = t.nblocks

let[@inline] check_block t block =
  if block < 0 || block >= t.nblocks then
    invalid_arg (Printf.sprintf "Dram: block %d out of range" block)

let check_line t ~block ~line =
  check_block t block;
  if line < 0 || line >= Layout.lines_per_block then
    invalid_arg (Printf.sprintf "Dram: line %d out of range" line)

(* [absent] if [block] was never written; the caller has checked it. *)
let find t block = t.leaves.(block lsr leaf_bits).(block land (leaf_pages - 1))

let read_page t ~block =
  check_block t block;
  find t block

(* Leaves and pages materialize on first write. *)
let page t block =
  let p = find t block in
  if p != absent then p
  else begin
    let i = block lsr leaf_bits in
    if t.leaves.(i) == no_leaf then t.leaves.(i) <- Array.make leaf_pages absent;
    let p = Bytes.make Layout.block_size '\000' in
    t.leaves.(i).(block land (leaf_pages - 1)) <- p;
    p
  end

let write_page t ~block =
  check_block t block;
  page t block

let check_buf buf off =
  if off < 0 || off > Bytes.length buf - Layout.line_size then
    invalid_arg "Dram: buffer too short for a line"

let read_line t ~block ~line ~dst ~dst_off =
  check_line t ~block ~line;
  check_buf dst dst_off;
  note_read t;
  let p = find t block in
  if p == absent then Bytes.fill dst dst_off Layout.line_size '\000'
  else Layout.blit_line p (line * Layout.line_size) dst dst_off

let write_line t ~block ~line ~src ~src_off =
  check_line t ~block ~line;
  check_buf src src_off;
  note_write t;
  Layout.blit_line src src_off (page t block) (line * Layout.line_size)

(* A released page reads as zeroes again; its leaf stays. *)
let release t ~block =
  check_block t block;
  let leaf = t.leaves.(block lsr leaf_bits) in
  if leaf != no_leaf then leaf.(block land (leaf_pages - 1)) <- absent

let zero_block = release

let zero_range t ~block ~off ~len =
  if off < 0 || len < 0 || off + len > Layout.block_size then
    invalid_arg "Dram.zero_range: range escapes block";
  check_block t block;
  let p = find t block in
  if p != absent then Bytes.fill p off len '\000'

let unsafe_read t ~block ~off ~len =
  if off < 0 || len < 0 || off + len > Layout.block_size then
    invalid_arg "Dram.unsafe_read: range escapes block";
  check_block t block;
  let p = find t block in
  if p == absent then String.make len '\000' else Bytes.sub_string p off len
