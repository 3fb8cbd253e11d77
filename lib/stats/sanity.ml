(* Sanitizer counters: one record per checker, merged machine-wide for
   reporting. The first nine keys are protocol violations (any nonzero
   value fails a `hare_cli run --check`); the rest are informational
   observability counters that let tests cross-check the shadow state
   against the real caches. *)

include Counters.Make ()

(* happens-before race rules *)
let stale_reads = key "stale-read"
let lost_writes = key "lost-write"
let write_races = key "write-race"
let missed_writebacks = key "missed-writeback"

(* protocol lint rules *)
let open_invals = key "open-inval"
let close_writebacks = key "close-writeback"
let dircache_stale = key "dircache-stale"
let fd_leaks = key "fd-leak"
let lease_leaks = key "lease-leak"

(* informational (not violations) *)
let dirty_discarded = key "dirty-discarded"
let hb_joins = key "hb-joins"
let lines_tracked = key "lines-tracked"
let cache_hits = key "cache-hits"
let cache_fills = key "cache-fills"
let cache_evictions = key "cache-evictions"
let cache_writebacks = key "cache-writebacks"
let cache_invalidated = key "cache-invalidated"

let violations t =
  List.filteri (fun i _ -> i <= (lease_leaks :> int)) (to_list t)

let total_violations t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (violations t)
