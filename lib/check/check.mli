(** Coherence sanitizer: happens-before race detector + protocol lint
    pass for the simulated machine (DESIGN.md §1f).

    The checker keeps one vector clock per core, advanced by mailbox
    send/recv and RPC-reply edges, and per-DRAM-line shadow metadata
    (last DRAM write, per-core cached-copy version + dirty epoch,
    per-core read epochs). Pcache fills, hits, dirty evictions,
    invalidations and write-backs are checked against the
    happens-before order; on top, lint rules assert Hare's own
    protocol obligations (close-to-open invalidation, write-back before
    close/fsync, dircache invalidation delivery, no fd/lease leaks at
    exit).

    Zero-perturbation invariant: no entry point charges simulated
    cycles, sleeps, or touches the simulation RNG. Running with the
    checker on must leave simulated clocks bit-identical to a
    checker-off run of the same seed (asserted by test/test_check.ml).

    This library is a dependency leaf (fmt + hare_stats only): line
    keys, core ids and channel ids are opaque integers supplied by the
    callers. *)

type t

type stamp
(** Snapshot of a sender's vector clock, carried alongside a message or
    stashed on a reply ivar, and joined into the receiver's clock. *)

type rule =
  | Stale_read  (** read of a cached copy superseded by an ordered-earlier write *)
  | Lost_write  (** dirty data clobbered (missing invalidation or conflicting write-back) *)
  | Write_race  (** two cores dirty/write the same line with no HB order *)
  | Missed_writeback  (** line used while another core holds an ordered-earlier dirty copy *)
  | Open_inval  (** close-to-open: open left file lines resident *)
  | Close_writeback  (** close/fsync left dirty lines unflushed *)
  | Dircache_stale  (** dircache hit with an undelivered invalidation outstanding *)
  | Fd_leak  (** process exit with open fds *)
  | Lease_leak  (** process exit holding allocation-lease blocks *)

type violation = { rule : rule; detail : string; time : int64 }

val create : ncores:int -> unit -> t

val set_now : t -> (unit -> int64) -> unit
(** Install a read-only clock used only to timestamp recorded
    violations. *)

(** {1 Happens-before edges} *)

val msg_stamp : t -> core:int -> stamp
(** Snapshot the sender's clock and tick it (snapshot-then-tick, so
    post-send work stays concurrent to the receiver). *)

val join : t -> core:int -> stamp -> unit
(** Pointwise-max a stamp into [core]'s clock (receive edge). *)

val new_chan : t -> int
(** Allocate a stamp FIFO mirroring one mailbox's queue. *)

val chan_push : t -> chan:int -> stamp -> unit
(** Enqueue a stamp in delivery order (call exactly where the real
    message enters the mailbox queue, after fault dice resolve). *)

val chan_pop : t -> chan:int -> core:int -> unit
(** Dequeue the next stamp and join it into the receiver. No-op on an
    empty or unknown channel (defensive). *)

(** {1 Shadow cache events}

    [key] is an opaque per-DRAM-line integer (the pcache line key).
    [filled] distinguishes a miss that fetched from DRAM from a hit on
    a resident copy. *)

val cache_access : t -> core:int -> key:int -> write:bool -> filled:bool -> unit
(** Checked access through a core's private write-back cache. *)

val coherent_access :
  t -> core:int -> key:int -> write:bool -> filled:bool -> unit
(** Read-through/write-through access (server shared data paths): the
    copy is never left dirty; flags a buffered-dirty copy it would
    silently discard. *)

val cache_writeback : t -> core:int -> key:int -> unit
(** Dirty line flushed to DRAM; checks for clobbering a newer DRAM
    version, then advances the line's last-writer to this core. *)

val cache_evict : t -> core:int -> key:int -> unit
(** Clean line dropped by LRU pressure (dirty evictions flush first and
    report {!cache_writeback} separately). *)

val cache_invalidate : t -> core:int -> key:int -> dirty:bool -> unit
(** Explicit invalidation; [dirty] counts discarded local writes
    (informational — close-to-open makes discarding intentional). *)

(** {1 Protocol lint rules} *)

val lint_open : t -> core:int -> keys:int list -> unit
(** After a direct-mode open's invalidation step: none of the file's
    lines may remain resident in this core's cache. *)

val lint_flush : t -> core:int -> keys:int list -> what:string -> unit
(** After the write-back step of close/fsync/truncate ([what] names
    it): none of the listed lines may remain dirty. *)

val lint_exit : t -> core:int -> fds:int -> leases:int -> unit
(** At process exit: [fds] open non-console descriptors and [leases]
    unreturned allocation-lease blocks must both be zero. *)

(** {1 Dircache invalidation obligations} *)

val dircache_sent :
  t -> client:int -> server:int -> ino:int -> name:string -> unit
(** Server sent [Inval_entry] for [(server/ino, name)] to [client]. *)

val dircache_applied :
  t -> client:int -> server:int -> ino:int -> name:string -> unit
(** Client drained and applied the matching invalidation. *)

val dircache_flushed : t -> client:int -> unit
(** Client flushed its whole dircache ([Inval_all]); clears every
    obligation owed to it. *)

val dircache_hit :
  t -> client:int -> server:int -> ino:int -> name:string -> unit
(** Dircache returned a hit; fires [Dircache_stale] if an obligation
    for this entry is still outstanding. *)

(** {1 Reporting} *)

val stats : t -> Hare_stats.Sanity.t

val total_violations : t -> int

val violations : t -> violation list
(** Earliest violations, in order of occurrence (capped at 100). *)

val report : t -> (string * int) list
(** Per-rule violation counts, stable display order. *)

val pp_violation : Format.formatter -> violation -> unit
