(** The Hare client library (one instance per core, Figure 2).

    Implements the file-system half of the POSIX API: path resolution
    through the directory cache, direct reads/writes of the shared buffer
    cache with close-to-open consistency, hybrid (local/shared) file
    descriptor state, the client side of the three-phase rmdir protocol,
    parallel directory broadcast, message coalescing and creation
    affinity. Process-level calls (fork/exec/wait) live in the [Hare]
    facade; they use {!fork_fds}/{!export_fds}/{!import_fds} from here.
    Every RPC goes through this client's {!Transport} (retries,
    breakers, the deferral window, [EMOVED] chases).

    All calls must run inside a simulation fiber pinned to this client's
    core, and raise {!Hare_proto.Errno.Error} on failure. *)

open Hare_proto

type t

val create :
  engine:Hare_sim.Engine.t ->
  config:Hare_config.Config.t ->
  cid:int ->
  core:Hare_sim.Core_res.t ->
  pcache:Hare_mem.Pcache.t ->
  servers:(Wire.fs_req, Wire.fs_resp) Hare_msg.Rpc.t array ->
  server_sockets:int array ->
  local_server:int ->
  inval_port:Wire.inval Hare_msg.Mailbox.t ->
  ?place:Hare_place.Place.t ->
  unit ->
  t
(** [inval_port] must be the mailbox registered with every client id at
    every file server; the directory cache drains it before each lookup.
    [place] is the machine's consistent-hash ring: [servers] is then
    indexed by physical server id while all placement hashing stays in
    logical home ids, each send resolving home [->] physical through the
    ring's current route (so a request follows a migrated shard). *)

val pcache : t -> Hare_mem.Pcache.t
(** This client's private cache, for stats cross-checks (tests). *)

val dircache : t -> Dircache.t

val syscalls : t -> Hare_stats.Opcount.t
(** POSIX-call mix issued through this client (Figure 5). *)

val rpc_count : t -> int
(** Request copies sent: first copies, retries and [EMOVED] chases. *)

val moved_retries : t -> int
(** Requests re-sent after an [EMOVED] bounce (shard migration races). *)

val robust : t -> Hare_stats.Robust.t
(** Timeout/retry/recovery counters (all zero without a fault plan). *)

val open_breakers : t -> int
(** Circuit breakers of this client currently sitting in the open
    state — an O(1) read maintained at every breaker transition, for
    the metrics sampler (PR 9). Always 0 when breakers are off. *)

val trip_breaker : t -> int -> unit
(** [trip_breaker t sid] forces this client's breaker for physical
    server [sid] open right now (cooldown from the current instant), as
    if its give-up threshold had just been crossed — counted in
    [open_breakers] and the robust counters like a real open. A test
    hook: lets a test pit an EMOVED chase or a deferred send against a
    breaker-open destination without scripting real timeouts. No-op
    when breakers are disabled or the breaker is already open. *)

val mutate_skip_open_inval : bool ref
(** Sanitizer self-test hook: when set, direct-mode open skips the
    close-to-open invalidation, so the sanitizer's open-inval lint (and,
    on a cross-core reread, stale-read) must fire. Never set outside
    tests. *)

val mutate_skip_writeback : bool ref
(** Sanitizer self-test hook: when set, close/fsync/truncate skip the
    dirty write-back (the dirty set is still forgotten, as a real bug
    would), so the sanitizer's close-writeback lint must fire. Never set
    outside tests. *)

val perf : t -> Hare_stats.Perf.t
(** Pipelining-window and extent-lease counters (all zero when
    [rpc_window] and [alloc_extent] are 1). *)

val drain_window : t -> unit
(** Wait for every deferred (pipelined) request to complete. Called
    internally at fsync/fork/exit boundaries; exposed for tests and for
    quiescing a client before inspecting server state. *)

(** {1 File calls} *)

val openf : t -> Fdtable.t -> cwd:string -> string -> Types.open_flags -> int

val close : t -> Fdtable.t -> int -> unit

val close_all : t -> Fdtable.t -> unit

val read : t -> Fdtable.t -> int -> len:int -> string
(** Returns [""] at EOF; short data at end-of-file or for pipes. *)

val write : t -> Fdtable.t -> int -> string -> int

val lseek : t -> Fdtable.t -> int -> pos:int -> Types.whence -> int

val dup : t -> Fdtable.t -> int -> int

val dup2 : t -> Fdtable.t -> src:int -> dst:int -> int

val pipe : t -> Fdtable.t -> int * int
(** Returns (read fd, write fd). *)

val fsync : t -> Fdtable.t -> int -> unit

val ftruncate : t -> Fdtable.t -> int -> size:int -> unit

val fstat : t -> Fdtable.t -> int -> Types.attr

(** {1 Name-space calls} *)

val unlink : t -> cwd:string -> string -> unit

val mkdir : t -> cwd:string -> ?dist:bool -> string -> unit
(** [dist] (default false) requests a distributed directory — the
    paper's per-directory sharding flag (§3.3); honoured only when the
    configuration enables directory distribution. *)

val rmdir : t -> cwd:string -> string -> unit

val rename : t -> cwd:string -> string -> string -> unit

val readdir : t -> cwd:string -> string -> Wire.entry list

val stat : t -> cwd:string -> string -> Types.attr

(** {1 Descriptor transfer (fork / exec)} *)

val fork_fds : t -> Fdtable.t -> Fdtable.t
(** Clone a table for a forked child: every file/pipe descriptor becomes
    shared — a synchronous refcount RPC per open description, with local
    offsets migrating to the servers (§3.4). *)

val export_fds : Fdtable.t -> (int * Wire.xfer_fd) list
(** Snapshot for an exec RPC; ownership moves with the snapshot (no
    refcount change — the proxy left behind stops using the fds). *)

val import_fds : t -> (int * Wire.xfer_fd) list -> Fdtable.t
(** Rebuild a table from an exec snapshot on the destination core. *)
