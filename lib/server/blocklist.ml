module Itbl = Hare_sim.Tbl.Int
module Freelist = Hare_mem.Freelist

type t = {
  first : int;
  count : int;
  free : Freelist.t;
  allocated : unit Itbl.t;
  adopted : unit Itbl.t;
  exported : unit Itbl.t;
}

let create ~first ~count =
  if first < 0 || count <= 0 then invalid_arg "Blocklist.create";
  {
    first;
    count;
    free = Freelist.create ~first ~count;
    allocated = Itbl.create 64;
    adopted = Itbl.create 16;
    exported = Itbl.create 16;
  }

let available t = Freelist.length t.free

let owns t block =
  (block >= t.first && block < t.first + t.count
  && not (Itbl.mem t.exported block))
  || Itbl.mem t.adopted block

let alloc_many t n =
  if n < 0 then invalid_arg "Blocklist.alloc_many";
  if Freelist.length t.free < n then None
  else
    Some
      (Array.init n (fun _ ->
           let b = Freelist.pop t.free in
           Itbl.replace t.allocated b ();
           b))

let free t block =
  if not (owns t block) then
    invalid_arg (Printf.sprintf "Blocklist.free: block %d not owned" block);
  if not (Itbl.mem t.allocated block) then
    invalid_arg (Printf.sprintf "Blocklist.free: block %d already free" block);
  Itbl.remove t.allocated block;
  Freelist.push t.free block

let free_many t blocks = Array.iter (free t) blocks

let donate t n =
  let got = Int.min n (Freelist.length t.free) in
  Array.init got (fun _ ->
      let b = Freelist.pop t.free in
      Itbl.remove t.adopted b;
      b)

let rebuild t ~live =
  (* Blocks that were allocated but are referenced by no surviving inode
     leaked in the crash; count them as reclaimed. *)
  let leaked =
    Itbl.fold
      (fun b () n ->
        if b >= t.first && b < t.first + t.count && not (Itbl.mem live b)
        then n + 1
        else n)
      t.allocated 0
  in
  (* Adopted (stolen) blocks still referenced by an inode stay owned and
     allocated; unreferenced ones return to their home partition's range —
     which we cannot reach — so they are simply forgotten (leaked across
     the whole machine, as after a real crash without a global sweep). *)
  let adopted_live =
    Itbl.fold
      (fun b () acc -> if Itbl.mem live b then b :: acc else acc)
      t.adopted []
  in
  Itbl.reset t.allocated;
  Itbl.reset t.adopted;
  Freelist.clear t.free;
  List.iter
    (fun b ->
      Itbl.replace t.adopted b ();
      Itbl.replace t.allocated b ())
    adopted_live;
  for b = t.first to t.first + t.count - 1 do
    if Itbl.mem t.exported b then ()
    else if Itbl.mem live b then Itbl.replace t.allocated b ()
    else Freelist.push t.free b
  done;
  leaked

let adopt t blocks =
  Array.iter
    (fun b ->
      if not (owns t b) then Itbl.replace t.adopted b ();
      Freelist.push t.free b)
    blocks

let export t blocks =
  Array.iter
    (fun b ->
      Itbl.remove t.allocated b;
      Itbl.remove t.adopted b;
      if b >= t.first && b < t.first + t.count then
        Itbl.replace t.exported b ())
    blocks

let adopt_allocated t blocks =
  Array.iter
    (fun b ->
      Itbl.remove t.exported b;
      if not (b >= t.first && b < t.first + t.count) then
        Itbl.replace t.adopted b ();
      Itbl.replace t.allocated b ())
    blocks
