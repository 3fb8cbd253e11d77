open Hare_sim

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  invalidated : int;
}

let lpb = Layout.lines_per_block

(* Block directory: block number -> frame. A frame is an [int array] of
   [lpb + 1] cells: cell [line] holds the slot caching that line of the
   block (0 = not cached), cell [lpb] the number of resident lines. An
   access looks its block's frame up once instead of hashing every line;
   invalidation and write-back walk one frame. *)
let count_cell = lpb

(* The frame of every block with no cached line. It is all zeroes and is
   never written: only frames from [frame_for] are. *)
let no_frame = Array.make (lpb + 1) 0

(* Two-level radix table: the top level covers [Dram.nblocks] in leaves
   of [leaf_size] frames, allocated on first use so an idle cache costs
   one small array. *)
let leaf_bits = 9

let leaf_size = 1 lsl leaf_bits

let no_leaf : int array array = [||]

type t = {
  dram : Dram.t;
  core : Core_res.t;
  costs : Hare_config.Costs.t;
  block_socket : int -> int;
  capacity : int;
  dir : int array array array;
  (* Frames whose count dropped to 0, reused so that a steady-state miss
     allocates nothing. *)
  mutable pool : int array array;
  mutable npool : int;
  (* Line slots, indexed 1..capacity. Slot 0 is the sentinel of the
     intrusive LRU list: [next.(0)] is the MRU slot, [prev.(0)] the
     victim. The arrays grow with use up to [capacity + 1]. *)
  mutable key : int array; (* block * lpb + line of the cached line *)
  mutable dirty : bool array;
  mutable prev : int array;
  mutable next : int array;
  (* Line data: slot [s] lives in chunk [(s - 1) / lpb]. A chunk holds
     [lpb] lines (the last one fewer, never past [capacity]) and is
     allocated when its first slot is handed out. *)
  chunks : Bytes.t array;
  mutable fresh : int; (* slots handed out so far *)
  mutable free_slot : int; (* slots freed by invalidation, linked by [next]; 0 = none *)
  mutable resident : int;
  (* Cycles of the access in progress, split for [charge]. *)
  mutable cache_cy : int;
  mutable dram_cy : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable invalidated : int;
}

let create ?block_socket dram ~core ~costs ~capacity_lines =
  if capacity_lines <= 0 then invalid_arg "Pcache.create: empty capacity";
  let block_socket =
    match block_socket with
    | Some f -> f
    | None -> fun (_ : int) -> Core_res.socket core
  in
  let slots = min (capacity_lines + 1) (lpb + 1) in
  {
    dram;
    core;
    costs;
    block_socket;
    capacity = capacity_lines;
    dir = Array.make ((Dram.nblocks dram + leaf_size - 1) / leaf_size) no_leaf;
    pool = [||];
    npool = 0;
    key = Array.make slots (-1);
    dirty = Array.make slots false;
    prev = Array.make slots 0;
    next = Array.make slots 0;
    chunks = Array.make ((capacity_lines + lpb - 1) / lpb) Bytes.empty;
    fresh = 0;
    free_slot = 0;
    resident = 0;
    cache_cy = 0;
    dram_cy = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    invalidated = 0;
  }

let core t = t.core

let obs t = Engine.obs (Core_res.engine t.core)

let cid t = Core_res.id t.core

(* Decompose the upcoming compute charge into cache vs. DRAM cycles and
   publish cumulative miss/write-back counters when they moved. *)
let charge t ~cache ~dram ~miss0 ~wb0 =
  let o = obs t in
  if Obs.on o Obs.spans then begin
    let fid = Engine.current_fid (Core_res.engine t.core) in
    Obs.emit o (Pending { fid; parts = [ (Cache, cache); (Dram, dram) ] })
  end;
  if Obs.on o Obs.marks then begin
    let ts = Obs.now o and track = cid t in
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
  if t.block_socket block <> Core_res.socket t.core then
    t.costs.dram_line + t.costs.dram_cross_socket_line
  else t.costs.dram_line

(* --- block directory -------------------------------------------------- *)

let find_frame t block =
  let i = block lsr leaf_bits in
  if i >= Array.length t.dir then no_frame
  else
    let leaf = Array.unsafe_get t.dir i in
    if leaf == no_leaf then no_frame
    else Array.unsafe_get leaf (block land (leaf_size - 1))

(* The frame of [block], taken from the pool if it has none. Only called
   after [Dram] accepted [block], so the block is in range. *)
let frame_for t block =
  let f = find_frame t block in
  if f != no_frame then f
  else begin
    let i = block lsr leaf_bits in
    if t.dir.(i) == no_leaf then t.dir.(i) <- Array.make leaf_size no_frame;
    let f =
      if t.npool > 0 then begin
        t.npool <- t.npool - 1;
        t.pool.(t.npool)
      end
      else Array.make (lpb + 1) 0
    in
    t.dir.(i).(block land (leaf_size - 1)) <- f;
    f
  end

let release_frame t block f =
  t.dir.(block lsr leaf_bits).(block land (leaf_size - 1)) <- no_frame;
  if t.npool = Array.length t.pool then begin
    let pool = Array.make (max 16 (2 * t.npool)) no_frame in
    Array.blit t.pool 0 pool 0 t.npool;
    t.pool <- pool
  end;
  t.pool.(t.npool) <- f;
  t.npool <- t.npool + 1

(* Forget that slot [s] caches its line; an emptied frame is released. *)
let unmap t s =
  let k = t.key.(s) in
  let block = block_of_key k in
  let f = find_frame t block in
  f.(line_of_key k) <- 0;
  let n = f.(count_cell) - 1 in
  f.(count_cell) <- n;
  if n = 0 then release_frame t block f

(* --- line slots ------------------------------------------------------- *)

let[@inline] chunk t s = Array.unsafe_get t.chunks ((s - 1) / lpb)

let[@inline] data_off s = (s - 1) mod lpb * Layout.line_size

let grow_slots t =
  let n = min (t.capacity + 1) (2 * Array.length t.key) in
  let grow a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.key <- grow t.key (-1);
  t.dirty <- grow t.dirty false;
  t.prev <- grow t.prev 0;
  t.next <- grow t.next 0

(* A slot for a new resident line while below capacity. *)
let new_slot t =
  if t.free_slot <> 0 then begin
    let s = t.free_slot in
    t.free_slot <- t.next.(s);
    s
  end
  else begin
    let s = t.fresh + 1 in
    t.fresh <- s;
    if s >= Array.length t.key then grow_slots t;
    if (s - 1) mod lpb = 0 then
      t.chunks.((s - 1) / lpb) <-
        Bytes.create (min lpb (t.capacity - s + 1) * Layout.line_size);
    s
  end

(* --- intrusive LRU list (sentinel slot 0) ------------------------------ *)

let[@inline] unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let[@inline] push_front t s =
  let n = t.next.(0) in
  t.next.(s) <- n;
  t.prev.(s) <- 0;
  t.prev.(n) <- s;
  t.next.(0) <- s

let[@inline] touch t s =
  if t.next.(0) <> s then begin
    unlink t s;
    push_front t s
  end

let flush_line t s =
  if t.dirty.(s) then begin
    let k = t.key.(s) in
    Dram.write_line t.dram ~block:(block_of_key k) ~line:(line_of_key k)
      ~src:(chunk t s) ~src_off:(data_off s);
    t.dirty.(s) <- false;
    t.writebacks <- t.writebacks + 1;
    let o = obs t in
    if Obs.on o Obs.cache then Obs.emit o (Cache_writeback { core = cid t; key = k });
    true
  end
  else false

(* Miss on [line] of [block]: at capacity, evict the LRU victim (written
   back if dirty) and reuse its slot; fill the slot from DRAM. Returns
   the slot and adds the cycles to the access's accumulators. Hook order
   matches the historic evict-then-fill path: write-back, drop, eviction
   count, evict hook, DRAM read. *)
let fill t ~block ~line =
  t.misses <- t.misses + 1;
  let s =
    if t.resident >= t.capacity then begin
      let v = t.prev.(0) in
      let vk = t.key.(v) in
      if flush_line t v then
        t.dram_cy <- t.dram_cy + dram_cost t (block_of_key vk);
      unmap t v;
      t.evictions <- t.evictions + 1;
      let o = obs t in
      if Obs.on o Obs.cache then Obs.emit o (Cache_evict { core = cid t; key = vk });
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
  t.key.(s) <- key_of ~block ~line;
  t.dirty.(s) <- false;
  Dram.read_line t.dram ~block ~line ~dst:(chunk t s) ~dst_off:(data_off s);
  let f = frame_for t block in
  f.(line) <- s;
  f.(count_cell) <- f.(count_cell) + 1;
  t.cache_cy <- t.cache_cy + t.costs.cache_hit_line;
  t.dram_cy <- t.dram_cy + dram_cost t block;
  s

let check_range ~off ~len =
  if len <= 0 then invalid_arg "Pcache: empty range";
  if off < 0 || off + len > Layout.block_size then
    invalid_arg "Pcache: range escapes block"

(* One access to bytes [off, off + len) of [block], copying to or from
   [buf] at [buf_off]. Coherent accesses model a MESI machine by keeping
   DRAM authoritative: every write goes through to DRAM, every read
   refetches the line. A resident (hit) line then moves at near-cache
   speed, with a small write-through/snoop overhead instead of a DRAM
   round trip; only misses pay the full transfer. *)
let access t ~block ~off ~len ~write ~coherent buf buf_off =
  check_range ~off ~len;
  let miss0 = t.misses and wb0 = t.writebacks in
  t.cache_cy <- 0;
  t.dram_cy <- 0;
  (* The victim of a miss may be the last line of this very block, which
     releases its frame: refetch the frame after every miss. *)
  let frame = ref (find_frame t block) in
  for line = off / Layout.line_size to (off + len - 1) / Layout.line_size do
    let s = !frame.(line) in
    let hit = s <> 0 in
    let s =
      if hit then begin
        touch t s;
        t.hits <- t.hits + 1;
        t.cache_cy <- t.cache_cy + t.costs.cache_hit_line;
        if coherent then t.dram_cy <- t.dram_cy + (t.costs.dram_line / 8);
        s
      end
      else begin
        let s = fill t ~block ~line in
        frame := find_frame t block;
        s
      end
    in
    let k = key_of ~block ~line in
    let o = obs t in
    if Obs.on o Obs.cache then
      Obs.emit o
        (Cache_access { core = cid t; key = k; write; filled = not hit; coherent });
    let data = chunk t s and doff = data_off s in
    let line_start = line * Layout.line_size in
    let from = max off line_start in
    let n = min (off + len) (line_start + Layout.line_size) - from in
    if write then begin
      Bytes.blit buf (buf_off + from - off) data (doff + from - line_start) n;
      if coherent then
        Dram.write_line t.dram ~block ~line ~src:data ~src_off:doff;
      t.dirty.(s) <- not coherent
    end
    else begin
      if coherent then begin
        Dram.read_line t.dram ~block ~line ~dst:data ~dst_off:doff;
        t.dirty.(s) <- false
      end;
      Bytes.blit data (doff + from - line_start) buf (buf_off + from - off) n
    end
  done;
  charge t ~cache:t.cache_cy ~dram:t.dram_cy ~miss0 ~wb0

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

(* Both walk the block's lines from the highest index down. *)

let invalidate_block t block =
  let miss0 = t.misses and wb0 = t.writebacks in
  let f = find_frame t block in
  let n = f.(count_cell) in
  if n > 0 then begin
    for line = lpb - 1 downto 0 do
      let s = f.(line) in
      if s <> 0 then begin
        let k = key_of ~block ~line in
        let o = obs t in
        if Obs.on o Obs.cache then
          Obs.emit o (Cache_invalidate { core = cid t; key = k; dirty = t.dirty.(s) });
        unlink t s;
        f.(line) <- 0;
        t.next.(s) <- t.free_slot;
        t.free_slot <- s;
        t.resident <- t.resident - 1;
        t.invalidated <- t.invalidated + 1
      end
    done;
    f.(count_cell) <- 0;
    release_frame t block f
  end;
  charge t ~cache:(n * t.costs.invalidate_line) ~dram:0 ~miss0 ~wb0

let writeback_block t block =
  let miss0 = t.misses and wb0 = t.writebacks in
  let f = find_frame t block in
  let flushed = ref 0 in
  if f != no_frame then
    for line = lpb - 1 downto 0 do
      let s = f.(line) in
      if s <> 0 && flush_line t s then incr flushed
    done;
  charge t ~cache:0 ~dram:(!flushed * dram_cost t block) ~miss0 ~wb0
