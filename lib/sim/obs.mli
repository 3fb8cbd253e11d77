(** The observer bus: one typed stream of the events Hare's correctness
    on a non-coherent machine rests on — messages, private-cache fills,
    write-backs and invalidations — plus the engine steps, attribution
    spans and counters the host-side tooling needs (DESIGN.md §1n).

    The engine owns one bus ({!Engine.obs}). Each instrumented site
    emits each event once, guarded so an idle bus costs one branch and
    no allocation:
    [if Obs.on o Obs.msgs then Obs.emit o (Msg_enqueue { mid; uid })].
    The trace, the sanitizer, the telemetry sampler and the schedule
    explorer subscribe; the protocol stack never names them.

    {b Subscriber contract.} Host-side bookkeeping only: a subscriber
    must not schedule events, charge cycles, sleep or draw from an RNG,
    so runs with and without any set of subscribers are bit-identical on
    the simulated clock. It may emit further events (the sampler
    publishes its gauges as counters) and may raise to abort the run
    (the explorer's sleep-set pruning). Events must not be retained
    beyond the call. *)

(** Where a cycle went (the trace's attribution buckets): syscall traps
    and handlers; message transfer and receive copies; core backlog and
    waits; dispatch preambles and context switches; private-cache
    touches; DRAM line transfers. *)
type bucket = Compute | Send | Queue | Dispatch | Cache | Dram

(** Times and cycle counts are simulated cycles; [core] and [track] are
    core ids; [fid] is the emitting fiber ({!Engine.current_fid}); [mid]
    is a message id ({!fresh_msg}), [uid] a mailbox's shared-object uid,
    [id] a request id ({!fresh_span}), [key] a pcache line key. *)
type event =
  (* {!steps} *)
  | Step of { time : int; seq : int; tag : int }
      (** the event loop is about to run heap entry [seq] (action [tag]) *)
  (* {!msgs} *)
  | Msg_send of { mid : int; uid : int; core : int }
      (** a send starts, before its cost is charged *)
  | Msg_fault of { mid : int; copies : int }
      (** the fault injector's verdict: [copies] (0, 1 or 2) will enter
          the queue *)
  | Msg_enqueue of { mid : int; uid : int }  (** one copy entered the queue *)
  | Msg_dequeue of { uid : int; core : int }  (** the owner took the head *)
  | Reply_fill of { id : int; core : int }  (** request [id] answered *)
  | Reply_read of { id : int; core : int }  (** ... and its reply taken *)
  (* {!cache} *)
  | Cache_access of
      { core : int; key : int; write : bool; filled : bool; coherent : bool }
      (** a hit or a fill ([filled]), write-back or read-/write-through *)
  | Cache_writeback of { core : int; key : int }
  | Cache_evict of { core : int; key : int }  (** clean drop by LRU *)
  | Cache_invalidate of { core : int; key : int; dirty : bool }
  (* {!spans} *)
  | Span_open of {
      fid : int;
      op : string;
      track : int;
      parent : int;  (** request id served, 0 = root *)
      ts : int;
      args : unit -> (string * string) list;  (** built only if exported *)
      pending : (bucket * int) list;  (** split of the next compute *)
    }  (** a fiber inside a span nests: inner open and close fold in *)
  | Span_close of { fid : int; ts : int; server : bool }
  | Pending of { fid : int; parts : (bucket * int) list }
      (** split of the fiber's next compute charge *)
  | Cpu of {
      fid : int;
      track : int;
      now : int;
      start : int;
      finish : int;
      cost : int;  (** includes [switch] *)
      switch : int;
      switched : bool;
    }  (** a core charge occupying [start, finish) *)
  | Wait of { fid : int; cycles : int }  (** pure waiting inside an op *)
  | Blocked of { fid : int; id : int; waited : int }
      (** [waited] cycles parked on request [id]'s reply *)
  | Send_target of { fid : int; srv : int; depth : int }
      (** a request copy heads to physical server [srv], queue [depth] *)
  (* {!marks} *)
  | Counter of { name : string; track : int; ts : int; value : int }
  | Instant of
      { name : string; track : int; ts : int; args : (string * string) list }
  (* {!lint} *)
  | Lint_open of { core : int; keys : unit -> int list }
      (** after a direct-mode open's invalidation step *)
  | Lint_flush of { core : int; keys : unit -> int list; what : string }
      (** after the write-back step of close/fsync/truncate *)
  | Lint_exit of { core : int; fds : int; leases : int }
  | Dircache of {
      kind : [ `Sent | `Applied | `Hit ];
      client : int;
      server : int;
      ino : int;
      name : string;
    }  (** an invalidation obligation sent / applied, or a dircache hit *)
  | Dircache_flushed of { client : int }

(** {1 Families}

    Every event belongs to one family (the comments in {!event}); a
    subscriber names the families it wants, and a site builds an event
    only when some subscriber wants its family. A subscriber ignores
    the other families' events. *)

type families = int
(** A set of families, combined with [lor]. *)

val steps : families
val msgs : families
val cache : families
val spans : families
val marks : families
val lint : families

type t

val create : unit -> t

val on : t -> families -> bool
(** Whether any subscriber wants one of the given families. *)

val emit : t -> event -> unit
(** Deliver to every subscriber, in subscription order. *)

val subscribe :
  ?diagnose:(unit -> string option) -> t -> families -> (event -> unit) -> unit
(** [diagnose] contributes a section to the engine's deadlock report. *)

val diagnostics : t -> string list

val set_clock : t -> (unit -> int) -> unit

val now : t -> int
(** The simulated clock, for emitters and subscribers without an engine. *)

val fresh_span : t -> int
(** Allocate a request id: one positive sequence shared by RPC requests
    and the trace's spans. *)

val fresh_msg : t -> int
(** Allocate a message id for one mailbox send (positive). *)

val no_args : unit -> (string * string) list
