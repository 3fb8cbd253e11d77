(** A Hare file server (§3.1, Figure 3).

    Each server owns: a partition of the shared buffer cache, a table of
    inodes, the directory-entry shards that hash to it, server-side open
    file descriptor state, per-name client tracking lists for directory
    cache invalidation, and the rmdir mark/lock state of the three-phase
    removal protocol. It runs as a daemon fiber looping on its RPC
    endpoint; it never blocks mid-request — operations that must wait
    (pipe I/O, rmdir serialization, creates in a marked directory) park
    their reply continuations. *)

type t

val create :
  engine:Hare_sim.Engine.t ->
  config:Hare_config.Config.t ->
  sid:int ->
  core:Hare_sim.Core_res.t ->
  pcache:Hare_mem.Pcache.t ->
  dram:Hare_mem.Dram.t ->
  blocks_first:int ->
  blocks_count:int ->
  inval_ports:Hare_proto.Wire.inval Hare_msg.Mailbox.t array ->
  ?place:Hare_place.Place.t ->
  ?faults:Hare_fault.Injector.link ->
  unit ->
  t
(** [faults] attaches this server's fault-injector link (also routed into
    the request mailbox) so crashes blackhole unreliable traffic.
    [place] is the consistent-hash ring shared by the whole machine. The
    server keeps each logical home it hosts in one record — just its own
    under a static placement; when the membership plan is non-empty
    whole records migrate in and out, and descriptor tokens carry their
    home in their high bits. *)

val sid : t -> int

val pcache : t -> Hare_mem.Pcache.t
(** This server's private cache, for stats cross-checks (tests). *)

val endpoint : t -> (Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.t

(** [install_root t] creates the (centralized) root directory inode; call
    exactly once, on the designated root server, before the simulation
    starts. *)
val install_root : t -> unit

(** [start t] spawns the dispatch-loop daemon fiber. *)
val start : t -> unit

(** [set_peers t endpoints] gives the server the other servers' RPC
    endpoints, enabling the block-stealing extension (§3.2; only used
    when the configuration turns it on). Wired by [Hare.Machine.boot]. *)
val set_peers :
  t -> (Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.t array -> unit

(** {1 Crash and recovery (fault injection)} *)

(** [crash t] kills the server process: every parked or queued request is
    aborted (tagged copies silently — their clients retry; the rest with
    [EIO]) and all volatile state (descriptor table, idempotency memory,
    invalidation tracking) is discarded. The DRAM-resident structures —
    inodes, directory shards, block contents — survive. Must be called
    from within a fiber (replies charge compute). *)
val crash : t -> unit

(** [restart t] boots the server back up: frees orphaned blocks and
    unlinked inodes (no descriptor survived), rebuilds the free-block
    list from the surviving inodes, tells every client to flush its
    directory cache, and serves the reliable requests that queued while
    down. Must be called from within a fiber. *)
val restart : t -> unit

val robust : t -> Hare_stats.Robust.t
(** Crash/dedup counters for this server. *)

(** {1 Introspection (tests, statistics)} *)

val ops : t -> Hare_stats.Opcount.t

val perf : t -> Hare_stats.Perf.t
(** Batch-dispatch counters (wakeups, batch-size histogram). *)

val invals_sent : t -> int

val blocks_stolen : t -> int
(** Blocks adopted from peers (block-stealing extension). *)

val available_blocks : t -> int

val inode_count : t -> int

val open_tokens : t -> int

val dentry_count : t -> int
(** Directory entries across every shard hosted here (cost-free). *)

val hosted_homes : t -> int list
(** The logical homes this physical server currently serves, sorted.
    A singleton [[sid]] under every static placement. *)

val homes_migrated_in : t -> int

val homes_migrated_out : t -> int

val moved_rejects : t -> int
(** Requests bounced with [EMOVED] because their home had migrated away. *)

val peak_queue : t -> int
(** Deepest request queue observed since the last {!reset_peak_queue}. *)

val reset_peak_queue : t -> unit

val queue_depth : t -> int
(** Requests queued at this server's mailbox right now (cost-free;
    read by the metrics sampler). *)

(** [shard_entries t dir] lists this server's entries for directory [dir]
    (cost-free; for tests). *)
val shard_entries : t -> Hare_proto.Types.ino -> (string * Hare_proto.Types.ino) list
