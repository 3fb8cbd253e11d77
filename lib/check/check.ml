(* Coherence sanitizer: ThreadSanitizer-style happens-before race
   detection plus a Hare protocol lint pass, over the simulated machine.

   One vector clock per core. Clocks advance on communication — a
   mailbox send snapshots the sender's clock and ticks it; the matching
   receive joins the snapshot into the receiver (pointwise max, no tick)
   — and on shadow write events (dirtying a copy, a write-back reaching
   DRAM), which tick the writer so that a write is ordered before
   another core's use only via a real message chain: a freshly ticked
   epoch is strictly above every previously sent snapshot. RPC replies
   ride the same mechanism, correlated by the request's bus id.
   Everything that happens on one core is totally ordered by the core's
   own component (cores are single-threaded in the simulation), so an
   event's epoch is just [vc.(c).(c)] and "event e on core c' is
   visible to core c" is [e <= vc.(c).(c')].

   Per cache line the checker keeps shadow metadata: which version each
   core's pcache copy is based on, whether that copy is dirty (and the
   epoch of the first dirtying write), the last write to reach DRAM, and
   per-core read epochs. Pcache fills/hits/evictions/write-backs/
   invalidations drive the shadow state and are checked against the
   happens-before order; violations increment Hare_stats.Sanity counters
   and record a capped list of earliest occurrences.

   ZERO PERTURBATION INVARIANT: nothing in this module may charge
   simulated cycles, sleep, touch the simulation RNG, or otherwise
   influence scheduling. All entry points are plain state updates; the
   [now] closure is read-only. The self-tests assert bit-identical clocks
   with the checker on vs. off. *)

module Obs = Hare_sim.Obs
module Sanity = Hare_stats.Sanity
module Itbl = Hashtbl.Make (Int)

type stamp = int array

type rule =
  | Stale_read
  | Lost_write
  | Write_race
  | Missed_writeback
  | Open_inval
  | Close_writeback
  | Dircache_stale
  | Fd_leak
  | Lease_leak

let rule_name = function
  | Stale_read -> "stale-read"
  | Lost_write -> "lost-write"
  | Write_race -> "write-race"
  | Missed_writeback -> "missed-writeback"
  | Open_inval -> "open-inval"
  | Close_writeback -> "close-writeback"
  | Dircache_stale -> "dircache-stale"
  | Fd_leak -> "fd-leak"
  | Lease_leak -> "lease-leak"

type violation = { rule : rule; detail : string; time : int64 }

(* A core's private-cache copy of one line: which DRAM version it was
   filled from ([base_core]/[base_epoch] identify the write, -1 = the
   pristine zero-filled line), whether the copy has unflushed local
   writes, and the epoch of the first such write. *)
type copy = {
  mutable base_core : int;
  mutable base_epoch : int;
  mutable dirty : bool;
  mutable d_epoch : int;
}

type lstate = {
  copies : copy option array; (* per core; None = not resident *)
  readers : int array; (* per core: epoch of latest read, 0 = never *)
  mutable w_core : int; (* core of last write to reach DRAM, -1 = none *)
  mutable w_epoch : int;
}

type t = {
  ncores : int;
  vc : int array array; (* vc.(c) = core c's vector clock *)
  chans : stamp Queue.t Itbl.t; (* mailbox uid -> stamp FIFO *)
  (* Sent messages whose copies have not all entered a queue yet: bus
     message id -> (stamp, copies still to enqueue). *)
  inflight : (stamp * int) Itbl.t;
  replies : stamp Itbl.t; (* request id -> filled reply's stamp *)
  lines : lstate Itbl.t;
  (* Outstanding dircache invalidations: the server sent Inval_entry to
     [client] and the protocol owes an application of it before the
     client's next cache hit on that name. *)
  obligations : (int * int * int * string, unit) Hashtbl.t;
  stats : Sanity.t;
  mutable violations : violation list; (* newest first, capped *)
  mutable nviol : int;
  mutable now : unit -> int64;
}

let max_recorded = 100

let create ~ncores () =
  {
    ncores;
    vc = Array.init ncores (fun _ -> Array.make ncores 0);
    chans = Itbl.create 64;
    inflight = Itbl.create 64;
    replies = Itbl.create 64;
    lines = Itbl.create 4096;
    obligations = Hashtbl.create 64;
    stats = Sanity.create ();
    violations = [];
    nviol = 0;
    now = (fun () -> 0L);
  }

let stats t = t.stats

let violations t = List.rev t.violations

let total_violations t = Sanity.total_violations t.stats

let report t = Sanity.violations t.stats

let bump t rule =
  let s = t.stats in
  match rule with
  | Stale_read -> Sanity.incr s Sanity.stale_reads
  | Lost_write -> Sanity.incr s Sanity.lost_writes
  | Write_race -> Sanity.incr s Sanity.write_races
  | Missed_writeback -> Sanity.incr s Sanity.missed_writebacks
  | Open_inval -> Sanity.incr s Sanity.open_invals
  | Close_writeback -> Sanity.incr s Sanity.close_writebacks
  | Dircache_stale -> Sanity.incr s Sanity.dircache_stale
  | Fd_leak -> Sanity.incr s Sanity.fd_leaks
  | Lease_leak -> Sanity.incr s Sanity.lease_leaks

let violate t rule detail =
  bump t rule;
  if t.nviol < max_recorded then begin
    t.violations <- { rule; detail; time = t.now () } :: t.violations;
    t.nviol <- t.nviol + 1
  end

(* ---------- happens-before machinery ---------------------------------- *)

let epoch t ~core = t.vc.(core).(core)

(* Write events get a fresh epoch: strictly above every snapshot this
   core sent earlier, so the write is HB-visible elsewhere only through
   a message sent at-or-after it. *)
let tick t ~core =
  let c = t.vc.(core) in
  c.(core) <- c.(core) + 1;
  c.(core)

(* Snapshot-then-tick: the snapshot carries everything the sender did up
   to and including this send; work the sender does afterwards gets a
   strictly larger own-component and stays concurrent to the receiver. *)
let msg_stamp t ~core =
  let s = Array.copy t.vc.(core) in
  t.vc.(core).(core) <- t.vc.(core).(core) + 1;
  s

let join t ~core (s : stamp) =
  let c = t.vc.(core) in
  for i = 0 to t.ncores - 1 do
    if s.(i) > c.(i) then c.(i) <- s.(i)
  done;
  Sanity.incr t.stats Sanity.hb_joins

(* [e <= vc.(core).(of_core)]: has [core] heard about event [e] that
   happened on [of_core]? Events on one core are ordered by its own
   epoch counter. *)
let hb t ~core ~of_core e = e <= t.vc.(core).(of_core)

(* Per-mailbox stamp queues mirror the real FIFOs: a send snapshots the
   sender's clock, each copy the fault dice let into the queue pushes
   that snapshot (a dropped message pushes none, a duplicate two), and
   each dequeue pops and joins — alignment with the real queue is
   structural. [copies] counts the copies still to enqueue. *)
let on_enqueue t ~mid ~uid =
  match Itbl.find_opt t.inflight mid with
  | None -> ()
  | Some (s, copies) ->
      let q =
        match Itbl.find_opt t.chans uid with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Itbl.replace t.chans uid q;
            q
      in
      Queue.push s q;
      if copies > 1 then Itbl.replace t.inflight mid (s, copies - 1)
      else Itbl.remove t.inflight mid

(* A reply is an edge from the filler's clock at fill time to the
   reader. Replies filled after their caller timed out are never read;
   past the high-water mark the older (smaller-id) half is forgotten. *)
let on_reply_fill t ~id ~core =
  Itbl.replace t.replies id (msg_stamp t ~core);
  if Itbl.length t.replies > 8192 then begin
    let ids = List.sort compare (List.of_seq (Itbl.to_seq_keys t.replies)) in
    let cutoff = List.nth ids (List.length ids / 2) in
    List.iter (fun i -> if i < cutoff then Itbl.remove t.replies i) ids
  end

(* ---------- shadow line state ----------------------------------------- *)

let line t key =
  match Itbl.find_opt t.lines key with
  | Some l -> l
  | None ->
      let l =
        {
          copies = Array.make t.ncores None;
          readers = Array.make t.ncores 0;
          w_core = -1;
          w_epoch = 0;
        }
      in
      Itbl.replace t.lines key l;
      Sanity.incr t.stats Sanity.lines_tracked;
      l

let fresh_copy ls =
  { base_core = ls.w_core; base_epoch = ls.w_epoch; dirty = false; d_epoch = 0 }

let based_on_current ls (cp : copy) =
  cp.base_core = ls.w_core && cp.base_epoch = ls.w_epoch

(* Some other core holds a dirty copy of this line while [core] is about
   to use it. If that foreign write is HB-ordered before us, the protocol
   should have written it back first (missed-writeback); if it is
   concurrent and we are writing too, it is a plain write-write race. *)
let check_foreign_dirty t ls ~core ~key ~racy_unordered =
  Array.iteri
    (fun c cp_opt ->
      match cp_opt with
      | Some cp when c <> core && cp.dirty ->
          if hb t ~core ~of_core:c cp.d_epoch then
            violate t Missed_writeback
              (Printf.sprintf
                 "line %d: core %d uses line while core %d holds an \
                  ordered-earlier dirty copy (no write-back)"
                 key core c)
          else if racy_unordered then
            violate t Write_race
              (Printf.sprintf
                 "line %d: cores %d and %d dirty the same line unordered" key
                 core c)
      | _ -> ())
    ls.copies

(* A checked access through a core's private cache. [filled] is whether
   the real pcache had to fetch the line from DRAM (miss) as opposed to
   hitting a resident copy. On a fill we validate the version the copy is
   (re)based on; on a hit we validate the *old* copy the core is reusing. *)
let cache_access t ~core ~key ~write ~filled =
  let ls = line t key in
  if filled then Sanity.incr t.stats Sanity.cache_fills
  else Sanity.incr t.stats Sanity.cache_hits;
  let cp_opt = if filled then None else ls.copies.(core) in
  (match cp_opt with
  | Some cp when ls.w_core >= 0 && not (based_on_current ls cp) ->
      (* Reusing a cached copy that predates the last DRAM write. *)
      if hb t ~core ~of_core:ls.w_core ls.w_epoch then
        violate t
          (if write then Lost_write else Stale_read)
          (Printf.sprintf
             "line %d: core %d %s a cached copy superseded by core %d's \
              ordered-earlier write (missing invalidation)"
             key core
             (if write then "overwrites" else "reads")
             ls.w_core)
      else if write && ls.w_core <> core then
        violate t Write_race
          (Printf.sprintf "line %d: cores %d and %d write the same line \
                           unordered" key core ls.w_core)
  | _ -> ());
  check_foreign_dirty t ls ~core ~key ~racy_unordered:write;
  let cp =
    match cp_opt with
    | Some cp -> cp
    | None ->
        let cp = fresh_copy ls in
        ls.copies.(core) <- Some cp;
        cp
  in
  if write then begin
    if not cp.dirty then begin
      cp.dirty <- true;
      cp.d_epoch <- tick t ~core
    end
  end
  else ls.readers.(core) <- epoch t ~core

(* Dirty line flushed to DRAM. If DRAM moved past the version this copy
   was based on, the flush clobbers that newer data. *)
let cache_writeback t ~core ~key =
  let ls = line t key in
  Sanity.incr t.stats Sanity.cache_writebacks;
  (match ls.copies.(core) with
  | Some cp when ls.w_core >= 0 && ls.w_core <> core && not (based_on_current ls cp)
    ->
      if hb t ~core ~of_core:ls.w_core ls.w_epoch then
        violate t Lost_write
          (Printf.sprintf
             "line %d: core %d's write-back clobbers core %d's \
              ordered-earlier write"
             key core ls.w_core)
      else
        violate t Write_race
          (Printf.sprintf
             "line %d: cores %d and %d write back the same line unordered" key
             core ls.w_core)
  | _ -> ());
  let e = tick t ~core in
  ls.w_core <- core;
  ls.w_epoch <- e;
  (match ls.copies.(core) with
  | Some cp ->
      cp.dirty <- false;
      cp.base_core <- core;
      cp.base_epoch <- e
  | None ->
      (* Flush of a line the shadow never saw resident: adopt it. *)
      ls.copies.(core) <-
        Some { base_core = core; base_epoch = e; dirty = false; d_epoch = 0 })

let cache_evict t ~core ~key =
  let ls = line t key in
  Sanity.incr t.stats Sanity.cache_evictions;
  ls.copies.(core) <- None

let cache_invalidate t ~core ~key ~dirty =
  let ls = line t key in
  Sanity.incr t.stats Sanity.cache_invalidated;
  if dirty then Sanity.incr t.stats Sanity.dirty_discarded;
  ls.copies.(core) <- None

(* Coherent (read-through/write-through) access, used by servers for
   shared metadata and data paths: the line is fetched fresh and any
   local write goes straight to DRAM, so the copy is never left dirty. *)
let coherent_access t ~core ~key ~write ~filled =
  let ls = line t key in
  if filled then Sanity.incr t.stats Sanity.cache_fills
  else Sanity.incr t.stats Sanity.cache_hits;
  (match ls.copies.(core) with
  | Some cp when cp.dirty ->
      (* A coherent access re-fetches from DRAM, silently discarding any
         buffered local writes — the protocol must never mix modes. *)
      violate t Lost_write
        (Printf.sprintf
           "line %d: coherent access on core %d discards its own dirty \
            buffered copy"
           key core)
  | _ -> ());
  check_foreign_dirty t ls ~core ~key ~racy_unordered:write;
  if write then begin
    let e = tick t ~core in
    ls.w_core <- core;
    ls.w_epoch <- e
  end
  else ls.readers.(core) <- epoch t ~core;
  ls.copies.(core) <-
    Some
      { base_core = ls.w_core; base_epoch = ls.w_epoch; dirty = false; d_epoch = 0 }

(* ---------- protocol lint rules --------------------------------------- *)

(* Close-to-open: opening a file in direct (uncached-metadata) mode must
   invalidate every locally cached line of it before the first read. *)
let lint_open t ~core ~keys =
  let resident =
    List.fold_left
      (fun acc key ->
        match Itbl.find_opt t.lines key with
        | Some ls when ls.copies.(core) <> None -> acc + 1
        | _ -> acc)
      0 keys
  in
  if resident > 0 then
    violate t Open_inval
      (Printf.sprintf
         "core %d: open left %d cached line(s) of the file resident \
          (close-to-open invalidation skipped)"
         core resident)

(* Write-back before close/fsync: after the flush point, none of the
   file's lines may remain dirty in this core's cache. *)
let lint_flush t ~core ~keys ~what =
  let dirty =
    List.fold_left
      (fun acc key ->
        match Itbl.find_opt t.lines key with
        | Some ls -> (
            match ls.copies.(core) with
            | Some cp when cp.dirty -> acc + 1
            | _ -> acc)
        | None -> acc)
      0 keys
  in
  if dirty > 0 then
    violate t Close_writeback
      (Printf.sprintf
         "core %d: %s left %d dirty line(s) unflushed (write-back skipped)"
         core what dirty)

let lint_exit t ~core ~fds ~leases =
  if fds > 0 then
    violate t Fd_leak
      (Printf.sprintf "core %d: process exited with %d open fd(s)" core fds);
  if leases > 0 then
    violate t Lease_leak
      (Printf.sprintf
         "core %d: process exited holding %d unreturned allocation lease \
          block(s)"
         core leases)

(* ---------- dircache obligation tracking ------------------------------ *)

let dircache_flushed t ~client =
  let stale =
    Hashtbl.fold
      (fun ((c, _, _, _) as k) () acc -> if c = client then k :: acc else acc)
      t.obligations []
  in
  List.iter (Hashtbl.remove t.obligations) stale

let dircache_hit t ~client ~server ~ino ~name =
  if Hashtbl.mem t.obligations (client, server, ino, name) then
    violate t Dircache_stale
      (Printf.sprintf
         "client %d: dircache hit on (%d/%d, %S) with an undelivered \
          invalidation outstanding"
         client server ino name)

(* ---------- the bus subscriber ---------------------------------------- *)

let on_event t (ev : Obs.event) =
  match ev with
  | Msg_send { mid; core; _ } ->
      Itbl.replace t.inflight mid (msg_stamp t ~core, 1)
  | Msg_fault { mid; copies } -> (
      match Itbl.find_opt t.inflight mid with
      | Some (s, _) when copies > 0 -> Itbl.replace t.inflight mid (s, copies)
      | _ -> Itbl.remove t.inflight mid)
  | Msg_enqueue { mid; uid } -> on_enqueue t ~mid ~uid
  | Msg_dequeue { uid; core } -> (
      match Itbl.find_opt t.chans uid with
      | Some q -> ( match Queue.take_opt q with Some s -> join t ~core s | None -> ())
      | None -> ())
  | Reply_fill { id; core } -> if id <> 0 then on_reply_fill t ~id ~core
  | Reply_read { id; core } -> (
      match Itbl.find_opt t.replies id with
      | Some s ->
          Itbl.remove t.replies id;
          join t ~core s
      | None -> ())
  | Cache_access { core; key; write; filled; coherent = false } ->
      cache_access t ~core ~key ~write ~filled
  | Cache_access { core; key; write; filled; coherent = true } ->
      coherent_access t ~core ~key ~write ~filled
  | Cache_writeback { core; key } -> cache_writeback t ~core ~key
  | Cache_evict { core; key } -> cache_evict t ~core ~key
  | Cache_invalidate { core; key; dirty } -> cache_invalidate t ~core ~key ~dirty
  | Lint_open { core; keys } -> lint_open t ~core ~keys:(keys ())
  | Lint_flush { core; keys; what } -> lint_flush t ~core ~keys:(keys ()) ~what
  | Lint_exit { core; fds; leases } -> lint_exit t ~core ~fds ~leases
  | Dircache { kind = `Sent; client; server; ino; name } ->
      Hashtbl.replace t.obligations (client, server, ino, name) ()
  | Dircache { kind = `Applied; client; server; ino; name } ->
      Hashtbl.remove t.obligations (client, server, ino, name)
  | Dircache { kind = `Hit; client; server; ino; name } ->
      dircache_hit t ~client ~server ~ino ~name
  | Dircache_flushed { client } -> dircache_flushed t ~client
  | _ -> ()

let attach t bus =
  t.now <- (fun () -> Int64.of_int (Obs.now bus));
  Obs.subscribe bus Obs.(msgs lor cache lor lint) (on_event t)

let pp_violation ppf v =
  Fmt.pf ppf "[%Ld] %s: %s" v.time (rule_name v.rule) v.detail
