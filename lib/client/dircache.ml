open Hare_proto

type key = Types.ino * string

module Entries = Hare_sim.Tbl.Make (struct
  type t = key

  let equal ((d, n) : key) ((d', n') : key) =
    d.Types.ino = d'.Types.ino && d.server = d'.server && String.equal n n'
end)

(* Seeded-mutation hook for the sanitizer self-tests: drop incoming
   invalidations on the floor so the dircache-stale rule must fire.
   Never set outside tests. *)
let mutate_drop_inval = ref false

(* The LRU order is kept lazily: every hit or insert pushes a freshly
   stamped (key, stamp) pair onto [order], and eviction pops pairs until
   one's stamp matches the entry's current stamp — stale pairs (the entry
   was touched again later, or removed) are discarded for free. This
   keeps find/add O(1). Only [add] evicts, so a hit-only working set
   would grow the queue by one pair per hit; once it holds more than
   twice [capacity] pairs, [compact] drops the stale ones. *)
type slot = { info : Wire.entry_info; mutable stamp : int }

type t = {
  enabled : bool;
  capacity : int;  (* 0 = unbounded *)
  entries : slot Entries.t;
  order : (key * int) Queue.t;
  port : Wire.inval Hare_msg.Mailbox.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
  robust : Hare_stats.Robust.t;  (* the owning client's; counts flushes *)
}

let create ~enabled ?(capacity = 0) ?(robust = Hare_stats.Robust.create ())
    ~port () =
  {
    enabled;
    capacity = max 0 capacity;
    entries = Entries.create 512;
    order = Queue.create ();
    port;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
    robust;
  }

let owner_core t = Hare_msg.Mailbox.owner t.port

let obs t = Hare_sim.Engine.obs (Hare_sim.Core_res.engine (owner_core t))

let client_id t = Hare_sim.Core_res.id (owner_core t)

(* Sanitizer obligation tracking: an applied invalidation or a hit. *)
let note t kind (dir : Types.ino) name =
  let o = obs t in
  if Hare_sim.Obs.(on o lint) then
    Hare_sim.Obs.emit o
      (Dircache
         { kind; client = client_id t; server = dir.server; ino = dir.ino; name })

(* Keep only the live pairs, in order: each live entry has exactly one
   (its latest stamp), so eviction victims are unchanged, and at most
   [capacity] + 1 pairs survive, which amortizes the scan over the
   [capacity] touches before the next compaction. *)
let compact t =
  let live = Queue.create () in
  Queue.iter
    (fun ((key, stamp) as pair) ->
      match Entries.find_opt t.entries key with
      | Some slot when slot.stamp = stamp -> Queue.push pair live
      | _ -> ())
    t.order;
  Queue.clear t.order;
  Queue.transfer live t.order

let touch t key (slot : slot) =
  t.tick <- t.tick + 1;
  slot.stamp <- t.tick;
  if t.capacity > 0 then begin
    Queue.push (key, t.tick) t.order;
    if Queue.length t.order > 2 * t.capacity then compact t
  end

let rec drain t =
  match Hare_msg.Mailbox.poll t.port with
  | None -> ()
  | Some (Wire.Inval_entry { i_dir; i_name }) ->
      if not !mutate_drop_inval then begin
        Entries.remove t.entries (i_dir, i_name);
        note t `Applied i_dir i_name
      end;
      t.invalidations <- t.invalidations + 1;
      drain t
  | Some Wire.Inval_all ->
      (* A server restarted; conservatively flush everything. *)
      Entries.reset t.entries;
      Queue.clear t.order;
      Hare_stats.Robust.(incr t.robust cache_flushes);
      let o = obs t in
      if Hare_sim.Obs.(on o lint) then
        Hare_sim.Obs.emit o (Dircache_flushed { client = client_id t });
      drain t

let find t ~dir ~name =
  drain t;
  if not t.enabled then None
  else
    match Entries.find_opt t.entries (dir, name) with
    | Some slot ->
        t.hits <- t.hits + 1;
        note t `Hit dir name;
        touch t (dir, name) slot;
        Some slot.info
    | None ->
        t.misses <- t.misses + 1;
        None

let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some (key, stamp) -> (
      match Entries.find_opt t.entries key with
      | Some slot when slot.stamp = stamp ->
          Entries.remove t.entries key;
          t.evictions <- t.evictions + 1
      | _ ->
          (* Stale pair: the entry was re-touched or already removed. *)
          evict_one t)

let add t ~dir ~name info =
  if t.enabled then begin
    let key = (dir, name) in
    let fresh = not (Entries.mem t.entries key) in
    let slot = { info; stamp = 0 } in
    Entries.replace t.entries key slot;
    touch t key slot;
    if t.capacity > 0 && fresh then
      while Entries.length t.entries > t.capacity do
        evict_one t
      done
  end

let remove t ~dir ~name = Entries.remove t.entries (dir, name)

let size t = Entries.length t.entries

let hits t = t.hits

let misses t = t.misses

let invalidations t = t.invalidations

let evictions t = t.evictions
