(* Binary min-heap over (time, seq) int keys. The engine pushes and pops
   one entry per simulated event, so at 512 cores the heap is the single
   hottest data structure in the process; every sift step therefore moves
   only ints.

   Each heap position holds four ints in parallel flat arrays: the key
   (time, seq), the opaque tag and a value-slot index. Values live in a
   separate slot array and never move: a push writes its value once into
   a free slot, and sifting shuffles the slot index instead of the value.
   The only pointer store per entry is that one write at push time — no
   [caml_modify] and no float-array check per swap. Freed slots are
   recycled through a stack. *)

type 'a t = {
  mutable times : int array; (* by heap position *)
  mutable seqs : int array;
  mutable tags : int array;
      (* opaque per-entry label (the engine's action tag); rides along
         through sifts but never participates in ordering *)
  mutable slots : int array; (* heap position -> value slot *)
  mutable values : 'a array; (* by value slot *)
  mutable free : int array; (* stack of released value slots *)
  mutable nfree : int;
  mutable size : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    tags = [||];
    slots = [||];
    values = [||];
    free = [||];
    nfree = 0;
    size = 0;
  }

let length h = h.size

let is_empty h = h.size = 0

(* A released slot keeps its stale value until a later push reuses it.
   The retention is bounded by the heap's high-water mark, and the
   engine's values are per-fiber resume closures and small scheduled
   callbacks, so no unbounded growth can hide here. *)

let grow h value =
  let capacity = Array.length h.times in
  if h.size = capacity then begin
    let capacity' = if capacity = 0 then 64 else capacity * 2 in
    let extend a fill =
      let a' = Array.make capacity' fill in
      Array.blit a 0 a' 0 capacity;
      a'
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.tags <- extend h.tags 0;
    h.slots <- extend h.slots 0;
    h.values <- extend h.values value;
    h.free <- extend h.free 0
  end

(* Slots in use plus released slots is the number ever handed out, so a
   fresh slot is the next index past both. *)
let[@inline] take_slot h =
  if h.nfree > 0 then begin
    h.nfree <- h.nfree - 1;
    Array.unsafe_get h.free h.nfree
  end
  else h.size

let[@inline] release_slot h slot =
  Array.unsafe_set h.free h.nfree slot;
  h.nfree <- h.nfree + 1

let[@inline] set h i time seq tag slot =
  Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.tags i tag;
  Array.unsafe_set h.slots i slot

let[@inline] move h ~src ~dst =
  set h dst
    (Array.unsafe_get h.times src)
    (Array.unsafe_get h.seqs src)
    (Array.unsafe_get h.tags src)
    (Array.unsafe_get h.slots src)

(* Is the entry at position [i] ordered before the key (time, seq)? *)
let[@inline] before h i time seq =
  let ti = Array.unsafe_get h.times i in
  ti < time || (ti = time && Array.unsafe_get h.seqs i < seq)

(* Hole-based sifts: the entry being placed is carried in the arguments
   while the entries it passes move one step into the hole; it is
   written once, where it lands. *)
let rec sift_up h i time seq tag slot =
  let parent = (i - 1) lsr 1 in
  if i > 0 && not (before h parent time seq) then begin
    move h ~src:parent ~dst:i;
    sift_up h parent time seq tag slot
  end
  else set h i time seq tag slot

let rec sift_down h i time seq tag slot =
  let left = (2 * i) + 1 in
  let child =
    if
      left + 1 < h.size
      && before h (left + 1) (Array.unsafe_get h.times left)
           (Array.unsafe_get h.seqs left)
    then left + 1
    else left
  in
  if child < h.size && before h child time seq then begin
    move h ~src:child ~dst:i;
    sift_down h child time seq tag slot
  end
  else set h i time seq tag slot

let push h ?(tag = 0) ~time ~seq value =
  if time < 0 then invalid_arg "Heap.push: negative time";
  grow h value;
  let slot = take_slot h in
  Array.unsafe_set h.values slot value;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i time seq tag slot

(* Remove position [i]: release its slot and refill the hole with the
   last entry, which may violate the heap property in either direction
   relative to its new neighbourhood. *)
let remove_at h i =
  release_slot h (Array.unsafe_get h.slots i);
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let time = Array.unsafe_get h.times last
    and seq = Array.unsafe_get h.seqs last
    and tag = Array.unsafe_get h.tags last
    and slot = Array.unsafe_get h.slots last in
    if i > 0 && not (before h ((i - 1) lsr 1) time seq) then
      sift_up h i time seq tag slot
    else sift_down h i time seq tag slot
  end

let min_time h =
  if h.size = 0 then raise Not_found;
  h.times.(0)

let min_seq h =
  if h.size = 0 then raise Not_found;
  h.seqs.(0)

let min_tag h =
  if h.size = 0 then raise Not_found;
  h.tags.(0)

let peek_min h =
  if h.size = 0 then raise Not_found;
  (h.times.(0), h.seqs.(0), h.values.(h.slots.(0)))

let pop h =
  if h.size = 0 then raise Not_found;
  let v = Array.unsafe_get h.values (Array.unsafe_get h.slots 0) in
  remove_at h 0;
  v

let pop_min h =
  if h.size = 0 then raise Not_found;
  let time = h.times.(0) and seq = h.seqs.(0) in
  let v = pop h in
  (time, seq, v)

(* --- schedule-exploration support (cold paths) -------------------------
   The model checker needs to see every event due at the minimum time and
   to remove an arbitrary one of them. Both are linear scans: they only
   run when an explorer is attached, on deliberately small configurations,
   and never on the default pop path. *)

let min_entries h =
  if h.size = 0 then [||]
  else begin
    let tmin = h.times.(0) in
    let n = ref 0 in
    for i = 0 to h.size - 1 do
      if Array.unsafe_get h.times i = tmin then incr n
    done;
    let out = Array.make !n (0, 0) in
    let j = ref 0 in
    for i = 0 to h.size - 1 do
      if Array.unsafe_get h.times i = tmin then begin
        out.(!j) <- (h.seqs.(i), h.tags.(i));
        incr j
      end
    done;
    Array.sort (fun (a, _) (b, _) -> compare (a : int) b) out;
    out
  end

let remove_seq h seq =
  let idx = ref (-1) in
  for i = 0 to h.size - 1 do
    if Array.unsafe_get h.seqs i = seq then idx := i
  done;
  if !idx < 0 then raise Not_found;
  let i = !idx in
  let time = h.times.(i) and tag = h.tags.(i) in
  let v = h.values.(h.slots.(i)) in
  remove_at h i;
  (time, tag, v)
