(** Coherence-sanitizer counters.

    Nine violation counters (one per sanitizer rule, see
    {!Hare_check.Check}) plus informational counters used to cross-check
    the checker's shadow state against the real caches. A run is clean iff
    {!total_violations} is zero; the informational counters may move
    freely. *)

include Counters.S

(* The nine rules, in report order (see [Hare_check.Check.rule]). *)

val stale_reads : key  (** stale-read: a superseded cached copy was read *)

val lost_writes : key  (** lost-write: dirty data was clobbered *)

val write_races : key  (** write-race: two unordered writes to one line *)

val missed_writebacks : key
(** missed-writeback: a line was used while another core held an
    ordered-earlier dirty copy *)

val open_invals : key  (** open-inval: an open left file lines resident *)

val close_writebacks : key
(** close-writeback: a close or fsync left dirty lines *)

val dircache_stale : key
(** dircache-stale: a dircache hit with an invalidation outstanding *)

val fd_leaks : key  (** fd-leak: a process exited with open fds *)

val lease_leaks : key  (** lease-leak: an exit held extent-lease blocks *)

(* Informational: shadow-state bookkeeping, not violations. *)

val dirty_discarded : key  (** dirty copies dropped by an invalidation *)

val hb_joins : key  (** happens-before joins into a core's clock *)

val lines_tracked : key  (** DRAM lines with shadow metadata *)

val cache_hits : key  (** private-cache hits seen *)

val cache_fills : key  (** private-cache fills seen *)

val cache_evictions : key  (** private-cache evictions seen *)

val cache_writebacks : key  (** private-cache write-backs seen *)

val cache_invalidated : key  (** private-cache invalidations seen *)

val violations : t -> (string * int) list
(** Per-rule violation counts in stable display order; informational
    counters excluded. *)

val total_violations : t -> int
