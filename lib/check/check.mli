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
    checker-off run of the same seed (asserted by test/test_obs.ml).

    The checker is a subscriber of the engine's observer bus
    ({!Hare_sim.Obs}, see {!attach}): line keys, core ids, mailbox uids
    and message ids are opaque integers carried by the events. *)

type t

type stamp
(** Snapshot of a sender's vector clock, queued alongside a message or
    kept for a reply, and joined into the receiver's clock. *)

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

val attach : t -> Hare_sim.Obs.t -> unit
(** Subscribe to a bus; its clock timestamps recorded violations.
    Message edges: a [Msg_send] snapshots the sender's clock, every
    [Msg_enqueue] of that message id queues the snapshot on the
    mailbox's FIFO (a dropped message queues none, a duplicate two) and
    every [Msg_dequeue] joins the head into the owner. Reply edges: a
    [Reply_fill] snapshots the filler, the [Reply_read] with the same
    request id joins it into the reader. *)

(** {1 Happens-before edges} *)

val msg_stamp : t -> core:int -> stamp
(** Snapshot the sender's clock and tick it (snapshot-then-tick, so
    post-send work stays concurrent to the receiver). *)

val join : t -> core:int -> stamp -> unit
(** Pointwise-max a stamp into [core]'s clock (receive edge). *)

(** {1 Shadow cache events}

    [key] is an opaque per-DRAM-line integer (the pcache line key).
    [filled] distinguishes a miss that fetched from DRAM from a hit on
    a resident copy. *)

val cache_access : t -> core:int -> key:int -> write:bool -> filled:bool -> unit
(** Checked access through a core's private write-back cache. *)

val cache_writeback : t -> core:int -> key:int -> unit
(** Dirty line flushed to DRAM; checks for clobbering a newer DRAM
    version, then advances the line's last-writer to this core. *)

(** {1 Protocol lint rules} *)

val lint_exit : t -> core:int -> fds:int -> leases:int -> unit
(** At process exit: [fds] open non-console descriptors and [leases]
    unreturned allocation-lease blocks must both be zero. *)

(** {1 Reporting} *)

val stats : t -> Hare_stats.Sanity.t

val total_violations : t -> int

val violations : t -> violation list
(** Earliest violations, in order of occurrence (capped at 100). *)

val report : t -> (string * int) list
(** Per-rule violation counts, stable display order. *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Verdict over several checked runs} *)

type verdict

val verdict : unit -> verdict

val record : verdict -> t -> unit
(** Adds a checked run's counters and violations. *)

val perturbed : verdict -> unit
(** Marks that a checked run's clock differed from its unchecked twin's. *)

val print_verdict : verbose:bool -> verdict -> int
(** The per-rule violation table (and, [verbose], every checker
    counter), the first 20 violations, and the outcome line; returns
    the exit code: 2 perturbed, 1 violations, 0 clean. *)
