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
   slot number, a key or an LRU link) or of 1 byte (a dirty flag). The
   primitives below compile inline even where [Bytes.get_int32_le]
   would be a call (-opaque). A frame's cells are read and written
   bounds-checked. [create] checks that every value fits in a cell. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] cell b i = Int32.to_int (get32 b (i lsl 2))

let[@inline] set_cell b i v = set32 b (i lsl 2) (Int32.of_int v)

let max_cell = 0x7fff_ffff

(* Block directory: block number -> frame. A frame is a [Bytes.t] of
   [lpb + 1] cells: cell [line] holds the slot caching that line of the
   block (0 = not cached), cell [lpb] the number of resident lines. An
   access looks its block's frame up once instead of hashing every line;
   invalidation and write-back walk one frame. *)
let count_cell = lpb

let frame_bytes = (lpb + 1) * 4

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
     and [next], a byte in [dirty], [nslots] slots in each. Slot 0 is the
     sentinel of the intrusive LRU list: [next] cell 0 is the MRU slot,
     [prev] cell 0 the victim. The cells grow with use up to
     [capacity + 1]. *)
  mutable key : Bytes.t; (* block * lpb + line of the cached line *)
  mutable dirty : Bytes.t; (* '\001' = dirty *)
  mutable prev : Bytes.t;
  mutable next : Bytes.t;
  mutable nslots : int;
  (* Line data: slot [s] lives in chunk [(s - 1) / lpb]. A chunk holds
     [lpb] lines (the last one fewer, never past [capacity]) and is
     allocated when its first slot is handed out. *)
  chunks : Bytes.t array;
  mutable fresh : int; (* slots handed out so far *)
  mutable free_slot : int; (* slots freed by invalidation, linked by [next]; 0 = none *)
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable invalidated : int;
}

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
    dirty = Bytes.make slots '\000';
    prev = Bytes.make (slots * 4) '\000';
    next = Bytes.make (slots * 4) '\000';
    nslots = slots;
    chunks = Array.make ((capacity_lines + lpb - 1) / lpb) Bytes.empty;
    fresh = 0;
    free_slot = 0;
    resident = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    invalidated = 0;
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

let line_of_key key = key mod lpb

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

let release_frame t block f =
  remove t block;
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

let[@inline] is_dirty t s = Bytes.unsafe_get t.dirty s <> '\000'

let[@inline] set_dirty t s d =
  Bytes.unsafe_set t.dirty s (if d then '\001' else '\000')

(* --- line slots ------------------------------------------------------- *)

let[@inline] chunk t s = Array.unsafe_get t.chunks ((s - 1) / lpb)

let[@inline] data_off s = (s - 1) mod lpb * line_size

let grow_slots t =
  let n = Int.min (t.capacity + 1) (2 * t.nslots) in
  let grow b ~width fill =
    let c = Bytes.make (n * width) fill in
    Bytes.blit b 0 c 0 (Bytes.length b);
    c
  in
  t.key <- grow t.key ~width:4 '\255';
  t.dirty <- grow t.dirty ~width:1 '\000';
  t.prev <- grow t.prev ~width:4 '\000';
  t.next <- grow t.next ~width:4 '\000';
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
    if (s - 1) mod lpb = 0 then
      t.chunks.((s - 1) / lpb) <-
        Bytes.create (Int.min lpb (t.capacity - s + 1) * line_size);
    s
  end

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

(* Write dirty slot [s], which caches [line] of the block whose DRAM page
   is [page], back. [observed]: whether the bus wants [Obs.cache]
   events, looked up once per call of the API. *)
let write_back t ~observed s page line =
  Dram.note_write t.dram;
  move_line (chunk t s) (data_off s) page (line * line_size);
  set_dirty t s false;
  t.writebacks <- t.writebacks + 1;
  if observed then
    Obs.emit t.obs (Cache_writeback { core = t.cid; key = slot_cell t.key s })

(* No page looked up yet. [Dram.write_page] never returns it. *)
let no_page = Bytes.empty

let check_range ~off ~len =
  if len <= 0 then invalid_arg "Pcache: empty range";
  if off < 0 || off + len > lpb * line_size then
    invalid_arg "Pcache: range escapes block"

(* One access to bytes [off, off + len) of [block], copying to or from
   [buf] at [buf_off]. Coherent accesses model a MESI machine by keeping
   DRAM authoritative: every write goes through to DRAM, every read
   refetches the line. A resident (hit) line then moves at near-cache
   speed, with a small write-through/snoop overhead instead of a DRAM
   round trip; only misses pay the full transfer.

   This is the hottest host path of the direct-access workloads, so a
   miss's eviction, write-back and fill run inline. What every line
   shares is looked up once per access: the range and [buf] checks (the
   cache's own chunks need none), [block]'s frame, DRAM page and line
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
     page ([no_page] until a dirty victim of the run needs it). *)
  let vblock = ref (-1) and vframe = ref no_frame in
  let vcost = ref 0 and vpage = ref no_page in
  let stop = off + len in
  for line = off / line_size to (stop - 1) / line_size do
    let line_start = line * line_size in
    let from = Int.max off line_start in
    let n = Int.min stop (line_start + line_size) - from in
    let s = checked t (cell !frame line) in
    let hit = s <> 0 in
    let s =
      if hit then begin
        touch t s;
        t.hits <- t.hits + 1;
        cache_cy := !cache_cy + hit_cy;
        dram_cy := !dram_cy + snoop_cy;
        s
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
            if is_dirty t v then begin
              if !vpage == no_page then begin
                vpage := Dram.write_page t.dram ~block:vb ~lines:lpb;
                (* The write-back may have given [block] its first page,
                   or grown a short one to a whole block: later fills
                   must read that page, not the one taken before. *)
                if vb = block then page := !vpage
              end;
              write_back t ~observed v !vpage vline;
              dram_cy := !dram_cy + !vcost
            end;
            let f = !vframe in
            set_cell f vline 0;
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
        set_dirty t s false;
        (* A non-coherent write of the whole line replaces all of it
           before anyone reads it: the read is counted, no byte moves. *)
        Dram.note_read t.dram;
        if not (write && (not coherent) && n = line_size) then
          load_line !page line (chunk t s) (data_off s);
        if !frame == no_frame then frame := new_frame t block;
        let f = !frame in
        set_cell f line s;
        set_cell f count_cell (cell f count_cell + 1);
        cache_cy := !cache_cy + hit_cy;
        dram_cy := !dram_cy + line_cy;
        s
      end
    in
    if observed then
      Obs.emit t.obs
        (Cache_access
           { core = t.cid; key = key_of ~block ~line; write; filled = not hit;
             coherent });
    let data = chunk t s and doff = data_off s in
    let data_at = doff + from - line_start and buf_at = buf_off + from - off in
    if write then begin
      (* A coherent partial write merges into the line's current bytes.
         A clean resident line is only a copy of DRAM, which another
         core's write or a freed block's zeroing may have changed since:
         take DRAM's bytes, within the snoop the hit already pays. A
         dirty one holds this core's newer writes; a miss has just
         filled the line. *)
      if coherent && hit && n < line_size && not (is_dirty t s) then
        move_line !page line_start data doff;
      if n = line_size then move_line buf buf_at data data_at
      else Bytes.unsafe_blit buf buf_at data data_at n;
      if coherent then begin
        Dram.note_write t.dram;
        move_line data doff !page line_start
      end;
      set_dirty t s (not coherent)
    end
    else begin
      if coherent then begin
        Dram.note_read t.dram;
        load_line !page line data doff;
        set_dirty t s false
      end;
      if n = line_size then move_line data data_at buf buf_at
      else Bytes.unsafe_blit data data_at buf buf_at n
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
    let page = ref no_page in
    for line = lpb - 1 downto 0 do
      let s = checked t (cell f line) in
      if s <> 0 then begin
        if writeback && is_dirty t s then begin
          if !page == no_page then
            page := Dram.write_page t.dram ~block ~lines:(line + 1);
          write_back t ~observed s !page line;
          incr flushed
        end;
        if observed then
          Obs.emit t.obs
            (Cache_invalidate
               { core = t.cid; key = key_of ~block ~line; dirty = is_dirty t s });
        unlink t s;
        set_cell f line 0;
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

let writeback_block t block =
  let miss0 = t.misses and wb0 = t.writebacks in
  let observed = t.obs.Obs.wanted land Obs.cache <> 0 in
  let f = find_frame t block in
  let flushed = ref 0 in
  if f != no_frame then begin
    let page = ref no_page in
    for line = lpb - 1 downto 0 do
      let s = checked t (cell f line) in
      if s <> 0 && is_dirty t s then begin
        if !page == no_page then
          page := Dram.write_page t.dram ~block ~lines:(line + 1);
        write_back t ~observed s !page line;
        incr flushed
      end
    done
  end;
  charge t ~cache:0 ~dram:(!flushed * dram_cost t block) ~miss0 ~wb0
