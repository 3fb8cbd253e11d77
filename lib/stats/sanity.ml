(* Sanitizer counters: one mutable record per checker, merged machine-wide
   for reporting. The first block of fields are protocol violations (any
   nonzero value fails a `hare_cli run --check`); the rest are informational
   observability counters that let tests cross-check the shadow state
   against the real caches. *)

type t = {
  (* happens-before race rules *)
  mutable stale_reads : int;
  mutable lost_writes : int;
  mutable write_races : int;
  mutable missed_writebacks : int;
  (* protocol lint rules *)
  mutable open_invals : int;
  mutable close_writebacks : int;
  mutable dircache_stale : int;
  mutable fd_leaks : int;
  mutable lease_leaks : int;
  (* informational (not violations) *)
  mutable dirty_discarded : int;
  mutable hb_joins : int;
  mutable lines_tracked : int;
  mutable cache_hits : int;
  mutable cache_fills : int;
  mutable cache_evictions : int;
  mutable cache_writebacks : int;
  mutable cache_invalidated : int;
}

let create () =
  {
    stale_reads = 0;
    lost_writes = 0;
    write_races = 0;
    missed_writebacks = 0;
    open_invals = 0;
    close_writebacks = 0;
    dircache_stale = 0;
    fd_leaks = 0;
    lease_leaks = 0;
    dirty_discarded = 0;
    hb_joins = 0;
    lines_tracked = 0;
    cache_hits = 0;
    cache_fills = 0;
    cache_evictions = 0;
    cache_writebacks = 0;
    cache_invalidated = 0;
  }

let reset t =
  t.stale_reads <- 0;
  t.lost_writes <- 0;
  t.write_races <- 0;
  t.missed_writebacks <- 0;
  t.open_invals <- 0;
  t.close_writebacks <- 0;
  t.dircache_stale <- 0;
  t.fd_leaks <- 0;
  t.lease_leaks <- 0;
  t.dirty_discarded <- 0;
  t.hb_joins <- 0;
  t.lines_tracked <- 0;
  t.cache_hits <- 0;
  t.cache_fills <- 0;
  t.cache_evictions <- 0;
  t.cache_writebacks <- 0;
  t.cache_invalidated <- 0

let merge ~into b =
  into.stale_reads <- into.stale_reads + b.stale_reads;
  into.lost_writes <- into.lost_writes + b.lost_writes;
  into.write_races <- into.write_races + b.write_races;
  into.missed_writebacks <- into.missed_writebacks + b.missed_writebacks;
  into.open_invals <- into.open_invals + b.open_invals;
  into.close_writebacks <- into.close_writebacks + b.close_writebacks;
  into.dircache_stale <- into.dircache_stale + b.dircache_stale;
  into.fd_leaks <- into.fd_leaks + b.fd_leaks;
  into.lease_leaks <- into.lease_leaks + b.lease_leaks;
  into.dirty_discarded <- into.dirty_discarded + b.dirty_discarded;
  into.hb_joins <- into.hb_joins + b.hb_joins;
  into.lines_tracked <- into.lines_tracked + b.lines_tracked;
  into.cache_hits <- into.cache_hits + b.cache_hits;
  into.cache_fills <- into.cache_fills + b.cache_fills;
  into.cache_evictions <- into.cache_evictions + b.cache_evictions;
  into.cache_writebacks <- into.cache_writebacks + b.cache_writebacks;
  into.cache_invalidated <- into.cache_invalidated + b.cache_invalidated

(* Violation counts only, in a stable rule order shared with the report
   table: informational counters are deliberately excluded so that
   "nonzero = broken protocol" holds. *)
let violations t =
  [
    ("stale-read", t.stale_reads);
    ("lost-write", t.lost_writes);
    ("write-race", t.write_races);
    ("missed-writeback", t.missed_writebacks);
    ("open-inval", t.open_invals);
    ("close-writeback", t.close_writebacks);
    ("dircache-stale", t.dircache_stale);
    ("fd-leak", t.fd_leaks);
    ("lease-leak", t.lease_leaks);
  ]

let total_violations t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (violations t)

let to_list t =
  violations t
  @ [
      ("dirty-discarded", t.dirty_discarded);
      ("hb-joins", t.hb_joins);
      ("lines-tracked", t.lines_tracked);
      ("cache-hits", t.cache_hits);
      ("cache-fills", t.cache_fills);
      ("cache-evictions", t.cache_evictions);
      ("cache-writebacks", t.cache_writebacks);
      ("cache-invalidated", t.cache_invalidated);
    ]

let is_zero t = List.for_all (fun (_, n) -> n = 0) (to_list t)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter (fun (k, v) -> Fmt.pf ppf "%-18s %d@," k v) (to_list t);
  Fmt.pf ppf "@]"
