(* Binary min-heap over (time, seq) int keys, stored as three parallel
   flat arrays. Native-int keys keep every comparison and swap unboxed
   (no per-entry record, no Int64 boxes held live), which matters because
   the engine pushes and pops one entry per simulated event: at 512 cores
   the heap is the single hottest data structure in the process. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable tags : int array;
      (* opaque per-entry label (the engine's action tag); rides along
         through swaps but never participates in ordering *)
  mutable values : 'a array;
  mutable size : int;
}

let create () =
  { times = [||]; seqs = [||]; tags = [||]; values = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Vacated tail slots keep their stale value until overwritten by a later
   push. The retention is bounded by the heap's high-water mark, and the
   engine's values are small scheduled-callback closures, so no quadratic
   or unbounded growth can hide here. *)

let grow h time seq value =
  let capacity = Array.length h.times in
  if h.size = capacity then begin
    let capacity' = if capacity = 0 then 64 else capacity * 2 in
    let times' = Array.make capacity' time in
    let seqs' = Array.make capacity' seq in
    let tags' = Array.make capacity' 0 in
    let values' = Array.make capacity' value in
    Array.blit h.times 0 times' 0 h.size;
    Array.blit h.seqs 0 seqs' 0 h.size;
    Array.blit h.tags 0 tags' 0 h.size;
    Array.blit h.values 0 values' 0 h.size;
    h.times <- times';
    h.seqs <- seqs';
    h.tags <- tags';
    h.values <- values'
  end

let[@inline] lt h i j =
  let ti = Array.unsafe_get h.times i and tj = Array.unsafe_get h.times j in
  ti < tj || (ti = tj && Array.unsafe_get h.seqs i < Array.unsafe_get h.seqs j)

let[@inline] swap h i j =
  let t = h.times.(i) in
  h.times.(i) <- h.times.(j);
  h.times.(j) <- t;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let g = h.tags.(i) in
  h.tags.(i) <- h.tags.(j);
  h.tags.(j) <- g;
  let v = h.values.(i) in
  h.values.(i) <- h.values.(j);
  h.values.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && lt h left !smallest then smallest := left;
  if right < h.size && lt h right !smallest then smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h ?(tag = 0) ~time ~seq value =
  if time < 0 then invalid_arg "Heap.push: negative time";
  grow h time seq value;
  let i = h.size in
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.tags.(i) <- tag;
  h.values.(i) <- value;
  h.size <- h.size + 1;
  sift_up h i

let min_time h =
  if h.size = 0 then raise Not_found;
  h.times.(0)

let min_tag h =
  if h.size = 0 then raise Not_found;
  h.tags.(0)

let peek_min h =
  if h.size = 0 then raise Not_found;
  (h.times.(0), h.seqs.(0), h.values.(0))

let pop_min h =
  if h.size = 0 then raise Not_found;
  let time = h.times.(0) and seq = h.seqs.(0) and v = h.values.(0) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    h.times.(0) <- h.times.(last);
    h.seqs.(0) <- h.seqs.(last);
    h.tags.(0) <- h.tags.(last);
    h.values.(0) <- h.values.(last);
    sift_down h 0
  end;
  (time, seq, v)

(* --- schedule-exploration support (cold paths) -------------------------
   The model checker needs to see every event due at the minimum time and
   to remove an arbitrary one of them. Both are linear scans: they only
   run when an explorer is attached, on deliberately small configurations,
   and never on the default pop_min path. *)

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
  let time = h.times.(i) and tag = h.tags.(i) and v = h.values.(i) in
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    h.times.(i) <- h.times.(last);
    h.seqs.(i) <- h.seqs.(last);
    h.tags.(i) <- h.tags.(last);
    h.values.(i) <- h.values.(last);
    (* The migrated tail entry may violate the heap property in either
       direction relative to its new neighbourhood. *)
    sift_down h i;
    sift_up h i
  end;
  (time, tag, v)
