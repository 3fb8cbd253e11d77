open Hare_sim

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  invalidated : int;
}

(* The geometry as literals. Built with -opaque (dune's dev profile), a
   module sees another's values only at run time, so [Layout]'s would
   turn the per-line slot arithmetic below into loads and divides. *)
let line_size = 64

let lpb = 64

let () = assert (line_size = Layout.line_size && lpb = Layout.lines_per_block)

(* The per-line bookkeeping is packed in [Bytes.t] cells of 4 bytes (a
   slot number, a key, an LRU link or where a line's bytes are). The
   primitives below compile inline even where [Bytes.get_int32_le]
   would be a call (-opaque). [create] checks that every value fits in
   a cell. *)
external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* A frame's cells are read and written unchecked: every frame is
   [frame_bytes] long, and every index is below [2 * lpb + 2] (a line
   number is below [lpb]: [check_range] bounds an access's, and
   [line_of_key] masks a victim's). A bounds check reads the frame's
   header and its last byte, two more host cache lines per access. *)
let[@inline] cell b i = Int32.to_int (unsafe_get32 b (i lsl 2))

let[@inline] set_cell b i v = unsafe_set32 b (i lsl 2) (Int32.of_int v)

let max_cell = 0x7fff_ffff

(* Block directory: block number -> frame. A frame is a [Bytes.t] of
   [2 * lpb + 2] cells: per line of the block, side by side, the slot
   caching it (0 = not cached) and where its bytes are (see
   [data_cell]); then the number of resident lines, and whether the
   cache is on the block's sharer word at [Dram] (see [share]). An
   access looks its block's frame up once instead of hashing every
   line; invalidation and write-back walk one frame. A line's two cells
   share a host cache line: apart, they made [perfbench] [data_rw]'s
   set-up, whose frames are mostly cold, about 10% slower. *)
let count_cell = 2 * lpb

let shared_cell = (2 * lpb) + 1

let frame_bytes = ((2 * lpb) + 2) * 4

let[@inline] slot_of f line = cell f (2 * line)

let[@inline] set_slot_of f line s = set_cell f (2 * line) s

(* Where the bytes of a cached [line] are: 0 for a shared line, which
   has none of its own (they are DRAM's: the block's page, zeroes past
   its end); [c] for a private clean line, whose bytes are in cell [c];
   [-c] for a private dirty one. A dirty line is always private. *)
let[@inline] data_cell f line = cell f ((2 * line) + 1)

let[@inline] set_data_cell f line d = set_cell f ((2 * line) + 1) d

(* The frame of every block with no cached line. It is all zeroes and is
   never written: only frames from [new_frame] are. *)
let no_frame = Bytes.make frame_bytes '\000'

(* The directory proper is an open-addressing table sized by the blocks
   cached, not by [Dram.nblocks]: [dir_keys.(i)] is a block number or
   [no_block], [dir_frames.(i)] its frame. A block's probe starts at its
   multiplicative hash and walks up (linear probing); a deletion shifts
   the rest of its probe run back, so no tombstone is left. The table is
   at most half full and doubles past that. It starts as the shared
   one-slot [no_keys], which no insertion writes: the first one grows
   it. *)
let no_block = -1

let no_keys = [| no_block |]

let no_frames = [| no_frame |]

let min_dir_slots = 16

type t = {
  dram : Dram.t;
  core : Core_res.t;
  obs : Obs.t; (* the engine's bus *)
  cid : int; (* the core's id and socket *)
  socket : int;
  costs : Hare_config.Costs.t;
  block_socket : int -> int;
  capacity : int;
  mutable dir_keys : int array;
  mutable dir_frames : Bytes.t array;
  mutable dir_shift : int; (* [Sys.int_size] - log2 of the slots *)
  mutable dir_count : int;
  (* Frames whose count dropped to 0, reused so that a steady-state miss
     allocates nothing. *)
  mutable pool : Bytes.t array;
  mutable npool : int;
  (* Line slots, indexed 1..capacity: a 4-byte cell each in [key], [prev]
     and [next], [nslots] slots in each. Slot 0 is the sentinel of the
     intrusive LRU list: [next] cell 0 is the MRU slot, [prev] cell 0 the
     victim. The cells grow with use up to [capacity + 1]. *)
  mutable key : Bytes.t; (* block * lpb + line of the cached line *)
  mutable prev : Bytes.t;
  mutable next : Bytes.t;
  mutable nslots : int;
  mutable fresh : int; (* slots handed out so far *)
  mutable free_slot : int; (* slots freed by invalidation, linked by [next]; 0 = none *)
  (* Line bytes of private slots, in 64-byte cells: cell [c] (from 1)
     lives in chunk [(c - 1) / lpb]. A chunk holds [lpb] cells (the last
     one fewer, never past [capacity]) and is allocated when its first
     cell is handed out. Freed cells wait on a stack of 4-byte cells,
     [free_cells], which grows with them: [nfree] of them, in room for
     [free_room]. *)
  chunks : Bytes.t array;
  mutable fresh_cells : int; (* cells handed out so far *)
  mutable free_cells : Bytes.t;
  mutable nfree : int;
  mutable free_room : int;
  mutable id : int; (* this cache's id at [dram] *)
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable invalidated : int;
}

let core t = t.core

(* Decompose the upcoming compute charge into cache vs. DRAM cycles and
   publish cumulative miss/write-back counters when they moved. *)
let charge t ~cache ~dram ~miss0 ~wb0 =
  let o = t.obs in
  if o.Obs.wanted land Obs.spans <> 0 then begin
    let fid = Engine.current_fid (Core_res.engine t.core) in
    Obs.emit o (Pending { fid; parts = [ (Cache, cache); (Dram, dram) ] })
  end;
  if o.Obs.wanted land Obs.marks <> 0 then begin
    let ts = Obs.now o and track = t.cid in
    if t.misses <> miss0 then
      Obs.emit o (Counter { name = "pc-miss"; track; ts; value = t.misses });
    if t.writebacks <> wb0 then
      Obs.emit o
        (Counter { name = "pc-writeback"; track; ts; value = t.writebacks })
  end;
  Core_res.compute t.core (cache + dram)

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
    invalidated = t.invalidated;
  }

let resident_lines t = t.resident

let key_of ~block ~line = (block * lpb) + line

let block_of_key key = key / lpb

let line_of_key key = key land (lpb - 1)

(* DRAM transfer cost for one line of [block], NUMA-aware. *)
let dram_cost t block =
  if t.block_socket block <> t.socket then
    t.costs.dram_line + t.costs.dram_cross_socket_line
  else t.costs.dram_line

(* --- block directory -------------------------------------------------- *)

(* Fibonacci hashing: the top bits of the product. Partitions hand out
   runs of consecutive blocks, which it scatters over the table. *)
let[@inline] hash shift block = (block * 0x1E3779B97F4A7C15) lsr shift

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let home_slot ~slots block =
  if slots < 1 || slots land (slots - 1) <> 0 then
    invalid_arg "Pcache.home_slot: slots must be a power of two";
  hash (Sys.int_size - log2 slots) block

(* The slot holding [block], or the empty slot ending its probe run. *)
let rec probe keys mask block i =
  let k = Array.unsafe_get keys i in
  if k = block || k = no_block then i else probe keys mask block ((i + 1) land mask)

(* The home slot is tested here, so that the common lookup makes no
   call. *)
let find_frame t block =
  let keys = t.dir_keys in
  let i = hash t.dir_shift block in
  let k = Array.unsafe_get keys i in
  if k = block then Array.unsafe_get t.dir_frames i
  else if k = no_block then no_frame
  else
    let i = probe keys (Array.length keys - 1) block i in
    if Array.unsafe_get keys i = block then Array.unsafe_get t.dir_frames i
    else no_frame

(* Insert [block], not in the table, with frame [f]; the table has room. *)
let insert t block f =
  let keys = t.dir_keys in
  let i = probe keys (Array.length keys - 1) block (hash t.dir_shift block) in
  Array.unsafe_set keys i block;
  Array.unsafe_set t.dir_frames i f;
  t.dir_count <- t.dir_count + 1

let grow_dir t =
  let keys = t.dir_keys and frames = t.dir_frames in
  let slots = Int.max min_dir_slots (2 * Array.length keys) in
  t.dir_keys <- Array.make slots no_block;
  t.dir_frames <- Array.make slots no_frame;
  t.dir_shift <- Sys.int_size - log2 slots;
  t.dir_count <- 0;
  Array.iteri (fun i k -> if k <> no_block then insert t k frames.(i)) keys

(* Backward-shift deletion: [hole] was just emptied. Walk the probe run
   after it from [j] and move into the hole every entry whose home slot
   lies, going round the table, at or before the hole, so that a probe
   from its home still reaches it; the slot it left is the new hole. The
   run ends at the first empty slot, which the last hole becomes. *)
let rec close_hole t keys frames mask hole j =
  let k = Array.unsafe_get keys j in
  if k = no_block then begin
    Array.unsafe_set keys hole no_block;
    Array.unsafe_set frames hole no_frame
  end
  else begin
    let next = (j + 1) land mask in
    if (j - hash t.dir_shift k) land mask >= (j - hole) land mask then begin
      Array.unsafe_set keys hole k;
      Array.unsafe_set frames hole (Array.unsafe_get frames j);
      close_hole t keys frames mask j next
    end
    else close_hole t keys frames mask hole next
  end

let remove t block =
  let keys = t.dir_keys in
  let mask = Array.length keys - 1 in
  let i = probe keys mask block (hash t.dir_shift block) in
  if Array.unsafe_get keys i = block then begin
    close_hole t keys t.dir_frames mask i ((i + 1) land mask);
    t.dir_count <- t.dir_count - 1
  end

(* A frame for [block], which has none, taken from the pool if it can
   be. Only called after [Dram] accepted [block], so the block is in
   range. *)
let new_frame t block =
  if 2 * (t.dir_count + 1) > Array.length t.dir_keys then grow_dir t;
  let f =
    if t.npool > 0 then begin
      t.npool <- t.npool - 1;
      t.pool.(t.npool)
    end
    else Bytes.make frame_bytes '\000'
  in
  insert t block f;
  f

(* The cache is on a block's sharer word at [Dram] whenever it has a
   shared line of the block: from the first line of the block that turns
   shared (a fill that is not a non-coherent write, a write-back, a
   coherent access to a private line) to the frame's release. A block
   whose lines are only ever written and evicted dirty never goes on it. *)
let[@inline] share t f block =
  if cell f shared_cell = 0 then begin
    Dram.share t.dram ~block ~id:t.id;
    set_cell f shared_cell 1
  end

let release_frame t block f =
  remove t block;
  if cell f shared_cell <> 0 then begin
    Dram.unshare t.dram ~block ~id:t.id;
    set_cell f shared_cell 0
  end;
  if t.npool = Array.length t.pool then begin
    let pool = Array.make (Int.max 16 (2 * t.npool)) no_frame in
    Array.blit t.pool 0 pool 0 t.npool;
    t.pool <- pool
  end;
  t.pool.(t.npool) <- f;
  t.npool <- t.npool + 1

(* --- slot cells ------------------------------------------------------- *)

(* A slot number is range-checked once, where it enters: read out of a
   cell ([checked], [link]) or handed out by [new_slot], which grows the
   slot arrays first. The slot arrays are then read and written
   unchecked: with the primitives' bounds check on every cell, a
   whole-block access took about 30% more host time. *)
let[@inline] checked t s =
  if s < 0 || s >= t.nslots then
    raise (Invalid_argument "Pcache: slot out of range");
  s

let[@inline] slot_cell b s = Int32.to_int (unsafe_get32 b (s lsl 2))

let[@inline] set_slot_cell b s v = unsafe_set32 b (s lsl 2) (Int32.of_int v)

let[@inline] link t b s = checked t (slot_cell b s)

(* --- line slots ------------------------------------------------------- *)

let grow_slots t =
  let n = Int.min (t.capacity + 1) (2 * t.nslots) in
  let grow b fill =
    let c = Bytes.make (n * 4) fill in
    Bytes.blit b 0 c 0 (Bytes.length b);
    c
  in
  t.key <- grow t.key '\255';
  t.prev <- grow t.prev '\000';
  t.next <- grow t.next '\000';
  t.nslots <- n

(* A slot for a new resident line while below capacity. *)
let new_slot t =
  if t.free_slot <> 0 then begin
    let s = t.free_slot in
    t.free_slot <- link t t.next s;
    s
  end
  else begin
    let s = t.fresh + 1 in
    t.fresh <- s;
    if s >= t.nslots then grow_slots t;
    s
  end

(* --- line cells ------------------------------------------------------- *)

(* A cell number is range-checked where it is used, so that the line
   moves below can run unchecked. *)
let[@inline] chunk t c =
  if c < 1 || c > t.fresh_cells then
    raise (Invalid_argument "Pcache: cell out of range");
  Array.unsafe_get t.chunks ((c - 1) / lpb)

let[@inline] cell_off c = (c - 1) mod lpb * line_size

(* A cell never handed out: there are never more than [capacity] private
   lines, so never more than [capacity] cells. *)
let fresh_cell t =
  let c = t.fresh_cells + 1 in
  t.fresh_cells <- c;
  if (c - 1) mod lpb = 0 then
    t.chunks.((c - 1) / lpb) <-
      Bytes.create (Int.min lpb (t.capacity - c + 1) * line_size);
  c

(* Make shared [line] of frame [f] private, dirty or not, with a cell:
   the last one freed if there is one. Returns the cell. The stack of
   freed cells is read and written unchecked: [nfree] never passes
   [free_room], its size in cells. *)
let[@inline] take_cell t f line ~dirty =
  let c =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      slot_cell t.free_cells t.nfree
    end
    else fresh_cell t
  in
  set_data_cell f line (if dirty then -c else c);
  c

let grow_free t =
  let room = Int.max 16 (2 * t.free_room) in
  let b = Bytes.create (4 * room) in
  Bytes.blit t.free_cells 0 b 0 (4 * t.nfree);
  t.free_cells <- b;
  t.free_room <- room

(* Make private [line] of frame [f], whose data cell is [d], shared: its
   cell goes back to the pool. *)
let[@inline] free_cell t f line d =
  if t.nfree = t.free_room then grow_free t;
  set_slot_cell t.free_cells t.nfree (Int.abs d);
  t.nfree <- t.nfree + 1;
  set_data_cell f line 0

(* --- intrusive LRU list (sentinel slot 0) ------------------------------ *)

let[@inline] unlink t s =
  let p = link t t.prev s and n = link t t.next s in
  set_slot_cell t.next p n;
  set_slot_cell t.prev n p

let[@inline] push_front t s =
  let n = link t t.next 0 in
  set_slot_cell t.next s n;
  set_slot_cell t.prev s 0;
  set_slot_cell t.prev n s;
  set_slot_cell t.next 0 s

let[@inline] touch t s =
  if slot_cell t.next 0 <> s then begin
    unlink t s;
    push_front t s
  end

(* --- line moves ---------------------------------------------------------- *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [Layout.blit_line], restated so that it compiles inline here:
   unchecked, the caller guarantees both ranges. *)
let[@inline] move_line src src_off dst dst_off =
  set64u dst dst_off (get64u src src_off);
  set64u dst (dst_off + 8) (get64u src (src_off + 8));
  set64u dst (dst_off + 16) (get64u src (src_off + 16));
  set64u dst (dst_off + 24) (get64u src (src_off + 24));
  set64u dst (dst_off + 32) (get64u src (src_off + 32));
  set64u dst (dst_off + 40) (get64u src (src_off + 40));
  set64u dst (dst_off + 48) (get64u src (src_off + 48));
  set64u dst (dst_off + 56) (get64u src (src_off + 56))

(* Copy [line] of a page from [Dram.read_page] into [dst] at [dst_off]:
   a line past the page's end (all of an empty page) reads as zeroes. *)
let[@inline] load_line page line dst dst_off =
  let at = line * line_size in
  if at >= Bytes.length page then Bytes.unsafe_fill dst dst_off line_size '\000'
  else move_line page at dst dst_off

(* Copy [n] bytes at [at] of [line] of a page into [dst] at [dst_off],
   zeroes past the page's end. *)
let[@inline] load_part page line at n dst dst_off =
  if n = line_size then load_line page line dst dst_off
  else if line * line_size >= Bytes.length page then
    Bytes.unsafe_fill dst dst_off n '\000'
  else Bytes.unsafe_blit page at dst dst_off n

(* Write [line] of [block], dirty in cell [c], back to [block]'s DRAM
   page [page]. [others]: whether another cache is on [block]'s sharer
   word; those that share this line must then copy it out before DRAM's
   bytes change. [observed]: whether the bus wants [Obs.cache] events,
   looked up once per call of the API. The caller says where the line's
   bytes are next. *)
let write_back t ~observed ~others c page block line =
  if others then Dram.before_write t.dram ~block ~first:line ~last:line ~id:t.id;
  Dram.note_write t.dram;
  move_line (chunk t c) (cell_off c) page (line * line_size);
  t.writebacks <- t.writebacks + 1;
  if observed then
    Obs.emit t.obs (Cache_writeback { core = t.cid; key = key_of ~block ~line })

(* No page looked up yet. [Dram.write_page] never returns it. *)
let no_page = Bytes.empty

let check_range ~off ~len =
  if len <= 0 then invalid_arg "Pcache: empty range";
  if off < 0 || off + len > lpb * line_size then
    invalid_arg "Pcache: range escapes block"

(* One access to bytes [off, off + len) of [block], copying to or from
   [buf] at [buf_off]. Coherent accesses model a MESI machine by keeping
   DRAM authoritative: every write goes through to DRAM, every read of a
   clean line refetches it. A resident (hit) line then moves at near-cache
   speed, with a small write-through/snoop overhead instead of a DRAM
   round trip; only misses pay the full transfer.

   A fill copies no bytes: the line is shared, and reads DRAM's until
   DRAM is about to change it (then [keep_lines] gives it a cell) or a
   non-coherent write makes it private and dirty. A coherent access
   leaves a line it refetches or writes through shared again.

   This is the hottest host path of the direct-access workloads, so a
   miss's eviction, write-back and fill run inline. What every line
   shares is looked up once per access: the range and [buf] checks (the
   cache's own cells need none), [block]'s frame, DRAM page and line
   cost. What a victim's block gives is looked up once per run of
   victims from one block. Only what the order contract of pcache.mli
   fixes stays per line: the counters, the DRAM traffic notes and the
   bus events. *)
let access t ~block ~off ~len ~write ~coherent buf buf_off =
  check_range ~off ~len;
  if buf_off < 0 || buf_off > Bytes.length buf - len then
    invalid_arg "Pcache: buffer too short";
  (* [Dram] checks [block] here, before anything moves. Only a coherent
     write writes [block]'s page; any other access reads it, and a block
     never written has an empty one. *)
  let page =
    ref
      (if write && coherent then Dram.write_page t.dram ~block ~lines:lpb
       else Dram.read_page t.dram ~block)
  in
  let miss0 = t.misses and wb0 = t.writebacks in
  let observed = t.obs.Obs.wanted land Obs.cache <> 0 in
  let hit_cy = t.costs.cache_hit_line in
  let snoop_cy = if coherent then t.costs.dram_line / 8 else 0 in
  let line_cy = dram_cost t block in
  let cache_cy = ref 0 and dram_cy = ref 0 in
  (* [no_frame] until the first fill of a block with no cached line. A
     victim from [block] itself leaves the frame in place even when it
     was the block's last cached line: the fill that follows refills it. *)
  let frame = ref (find_frame t block) in
  (* The current run of victims' block, with its frame, line cost and
     page ([no_page] until a dirty victim of the run needs it, which
     also asks whether another cache is on the block's sharer word). *)
  let vblock = ref (-1) and vframe = ref no_frame in
  let vcost = ref 0 and vpage = ref no_page and vothers = ref false in
  let stop = off + len in
  for line = off / line_size to (stop - 1) / line_size do
    let line_start = line * line_size in
    let from = Int.max off line_start in
    let n = Int.min stop (line_start + line_size) - from in
    let s = checked t (slot_of !frame line) in
    let hit = s <> 0 in
    if hit then begin
      touch t s;
      t.hits <- t.hits + 1;
      cache_cy := !cache_cy + hit_cy;
      dram_cy := !dram_cy + snoop_cy
    end
    else begin
      (* The miss: count it; at capacity evict the LRU victim (written
         back if dirty) and reuse its slot; fill the slot from DRAM. *)
      t.misses <- t.misses + 1;
      let s =
        if t.resident >= t.capacity then begin
          let v = link t t.prev 0 in
          let vk = slot_cell t.key v in
          let vb = block_of_key vk and vline = line_of_key vk in
          if vb <> !vblock then begin
            vblock := vb;
            vframe := find_frame t vb;
            vcost := dram_cost t vb;
            vpage := no_page
          end;
          let f = !vframe in
          let d = data_cell f vline in
          if d < 0 then begin
            if !vpage == no_page then begin
              vpage := Dram.write_page t.dram ~block:vb ~lines:lpb;
              vothers := Dram.others_share t.dram ~block:vb ~id:t.id;
              (* The write-back may have given [block] its first page,
                 or grown a short one to a whole block: later fills
                 must read that page, not the one taken before. *)
              if vb = block then page := !vpage
            end;
            write_back t ~observed ~others:!vothers (-d) !vpage vb vline;
            dram_cy := !dram_cy + !vcost
          end;
          if d <> 0 then free_cell t f vline d;
          set_slot_of f vline 0;
          let count = cell f count_cell - 1 in
          set_cell f count_cell count;
          if count = 0 && vb <> block then begin
            release_frame t vb f;
            vblock := -1
          end;
          t.evictions <- t.evictions + 1;
          if observed then Obs.emit t.obs (Cache_evict { core = t.cid; key = vk });
          touch t v;
          v
        end
        else begin
          let s = new_slot t in
          t.resident <- t.resident + 1;
          push_front t s;
          s
        end
      in
      set_slot_cell t.key s (key_of ~block ~line);
      Dram.note_read t.dram;
      if !frame == no_frame then frame := new_frame t block;
      let f = !frame in
      if coherent || not write then share t f block;
      set_slot_of f line s;
      set_cell f count_cell (cell f count_cell + 1);
      cache_cy := !cache_cy + hit_cy;
      dram_cy := !dram_cy + line_cy
    end;
    if observed then
      Obs.emit t.obs
        (Cache_access
           { core = t.cid; key = key_of ~block ~line; write; filled = not hit;
             coherent });
    let f = !frame in
    let d = data_cell f line in
    let at = from - line_start and buf_at = buf_off + from - off in
    if write then begin
      if coherent then begin
        (* A coherent write leaves the line equal to DRAM, and shared. A
           clean line (shared, or a private copy DRAM has changed since)
           takes DRAM's current bytes around the range, within the snoop
           the hit already pays; a dirty one holds this core's newer
           writes, which go through with the range. *)
        Dram.before_write t.dram ~block ~first:line ~last:line ~id:t.id;
        Dram.note_write t.dram;
        let pg = !page in
        if d < 0 then begin
          let data = chunk t (-d) and doff = cell_off (-d) in
          Bytes.unsafe_blit buf buf_at data (doff + at) n;
          move_line data doff pg line_start
        end
        else if n = line_size then move_line buf buf_at pg line_start
        else Bytes.unsafe_blit buf buf_at pg from n;
        if d <> 0 then begin
          free_cell t f line d;
          share t f block
        end
      end
      else begin
        (* A non-coherent write makes the line private and dirty, taking
           DRAM's bytes first unless it replaces all of them. *)
        let c =
          if d > 0 then begin
            set_data_cell f line (-d);
            d
          end
          else if d < 0 then -d
          else begin
            let c = take_cell t f line ~dirty:true in
            if n < line_size then load_line !page line (chunk t c) (cell_off c);
            c
          end
        in
        let data = chunk t c and doff = cell_off c in
        if n = line_size then move_line buf buf_at data doff
        else Bytes.unsafe_blit buf buf_at data (doff + at) n
      end
    end
    else begin
      (* A coherent read refetches a clean line, which DRAM may have
         changed since, and serves a dirty one as it is: its bytes are
         this core's newer writes. *)
      let d =
        if coherent && d >= 0 then begin
          Dram.note_read t.dram;
          if d > 0 then begin
            free_cell t f line d;
            share t f block
          end;
          0
        end
        else d
      in
      if d = 0 then load_part !page line from n buf buf_at
      else begin
        let c = Int.abs d in
        let data = chunk t c and doff = cell_off c in
        if n = line_size then move_line data doff buf buf_at
        else Bytes.unsafe_blit data (doff + at) buf buf_at n
      end
    end
  done;
  charge t ~cache:!cache_cy ~dram:!dram_cy ~miss0 ~wb0

let read t ~block ~off ~len ~dst ~dst_off =
  access t ~block ~off ~len ~write:false ~coherent:false dst dst_off

let write t ~block ~off ~len ~src ~src_off =
  access t ~block ~off ~len ~write:true ~coherent:false src src_off

let read_coherent t ~block ~off ~len ~dst ~dst_off =
  access t ~block ~off ~len ~write:false ~coherent:true dst dst_off

let write_coherent t ~block ~off ~len ~src ~src_off =
  access t ~block ~off ~len ~write:true ~coherent:true src src_off

let read_string t ~block ~off ~len =
  let dst = Bytes.create len in
  read t ~block ~off ~len ~dst ~dst_off:0;
  Bytes.unsafe_to_string dst

let write_string t ~block ~off s =
  write t ~block ~off ~len:(String.length s) ~src:(Bytes.unsafe_of_string s)
    ~src_off:0

(* All three walk the block's lines from the highest index down, and
   look the block's page up once, at its first dirty line: a page that
   covers that line covers every line after it. *)

let drop_block t block ~writeback ~dropped =
  let miss0 = t.misses and wb0 = t.writebacks in
  let observed = t.obs.Obs.wanted land Obs.cache <> 0 in
  let f = find_frame t block in
  let n = cell f count_cell in
  let flushed = ref 0 in
  if n > 0 then begin
    let page = ref no_page and others = ref false in
    for line = lpb - 1 downto 0 do
      let s = checked t (slot_of f line) in
      if s <> 0 then begin
        let d = data_cell f line in
        if writeback && d < 0 then begin
          if !page == no_page then begin
            page := Dram.write_page t.dram ~block ~lines:(line + 1);
            others := Dram.others_share t.dram ~block ~id:t.id
          end;
          write_back t ~observed ~others:!others (-d) !page block line;
          incr flushed
        end;
        if observed then
          Obs.emit t.obs
            (Cache_invalidate
               { core = t.cid; key = key_of ~block ~line;
                 dirty = d < 0 && not writeback });
        if d <> 0 then free_cell t f line d;
        unlink t s;
        set_slot_of f line 0;
        set_slot_cell t.next s t.free_slot;
        t.free_slot <- s;
        t.resident <- t.resident - 1;
        t.invalidated <- t.invalidated + 1
      end
    done;
    set_cell f count_cell 0;
    release_frame t block f
  end;
  dropped block;
  charge t ~cache:(n * t.costs.invalidate_line)
    ~dram:(!flushed * dram_cost t block) ~miss0 ~wb0

let invalidate_block t block = drop_block t block ~writeback:false ~dropped:ignore

let evict_block ~dropped t block = drop_block t block ~writeback:true ~dropped

(* A written-back line equals DRAM's again: it is shared, and its cell
   goes back to the pool. *)
let writeback_block t block =
  let miss0 = t.misses and wb0 = t.writebacks in
  let observed = t.obs.Obs.wanted land Obs.cache <> 0 in
  let f = find_frame t block in
  let flushed = ref 0 in
  if f != no_frame then begin
    let page = ref no_page and others = ref false in
    for line = lpb - 1 downto 0 do
      let d = data_cell f line in
      if d < 0 then begin
        if !page == no_page then begin
          page := Dram.write_page t.dram ~block ~lines:(line + 1);
          others := Dram.others_share t.dram ~block ~id:t.id
        end;
        write_back t ~observed ~others:!others (-d) !page block line;
        free_cell t f line d;
        share t f block;
        incr flushed
      end
    done
  end;
  charge t ~cache:0 ~dram:(!flushed * dram_cost t block) ~miss0 ~wb0

(* DRAM is about to change lines [first, last] of [block]: each of them
   this cache shares takes a cell with the bytes it reads now, so that
   the cache keeps them, clean, as a private cache would. Nothing is
   counted, charged or emitted. *)
let keep_lines t block first last =
  let f = find_frame t block in
  if f != no_frame then begin
    let page = Dram.read_page t.dram ~block in
    for line = first to last do
      let s = checked t (slot_of f line) in
      if s <> 0 && data_cell f line = 0 then begin
        let c = take_cell t f line ~dirty:false in
        load_line page line (chunk t c) (cell_off c)
      end
    done
  end

let create ?block_socket dram ~core ~costs ~capacity_lines =
  if capacity_lines <= 0 then invalid_arg "Pcache.create: empty capacity";
  if capacity_lines > max_cell then
    invalid_arg "Pcache.create: capacity_lines does not fit in 31 bits";
  if Dram.nblocks dram > max_cell / lpb then
    invalid_arg "Pcache.create: DRAM line keys do not fit in 31 bits";
  let block_socket =
    match block_socket with
    | Some f -> f
    | None -> fun (_ : int) -> Core_res.socket core
  in
  let slots = Int.min (capacity_lines + 1) (lpb + 1) in
  let t =
  {
    dram;
    core;
    obs = Engine.obs (Core_res.engine core);
    cid = Core_res.id core;
    socket = Core_res.socket core;
    costs;
    block_socket;
    capacity = capacity_lines;
    dir_keys = no_keys;
    dir_frames = no_frames;
    dir_shift = Sys.int_size;
    dir_count = 0;
    pool = [||];
    npool = 0;
    key = Bytes.make (slots * 4) '\255';
    prev = Bytes.make (slots * 4) '\000';
    next = Bytes.make (slots * 4) '\000';
    nslots = slots;
    fresh = 0;
    free_slot = 0;
    chunks = Array.make ((capacity_lines + lpb - 1) / lpb) Bytes.empty;
    fresh_cells = 0;
    free_cells = Bytes.empty;
    nfree = 0;
    free_room = 0;
    id = -1;
    resident = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    invalidated = 0;
  }
  in
  t.id <- Dram.attach dram (keep_lines t);
  t
