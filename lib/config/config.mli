(** Machine and Hare configuration.

    Mirrors the paper's experimental knobs: number of cores, number and
    placement of file servers (timeshared with applications vs. dedicated
    split), the exec placement policy, and the five individually-ablatable
    techniques of §3.6 / §5.4. *)

type placement =
  | Timeshare  (** one file server per core, sharing the core with apps. *)
  | Split of int
      (** [Split n]: file servers on [n] dedicated cores; applications and
          scheduling servers on the remaining cores. *)
  | Sharded of { servers : int; vnodes : int }
      (** {e extension}: consistent-hash placement. [servers] logical
          file-server homes on dedicated cores, each owning [vnodes]
          rendezvous-hash points on the placement ring
          ([Hare_place.Place]); a {!field-shard_plan} can add or remove
          physical servers mid-run, migrating whole homes between them.
          With an empty plan this is bit-identical to [Split servers]. *)

type exec_policy = Random_placement | Round_robin

type t = {
  ncores : int;
  placement : placement;
  exec_policy : exec_policy;
  cores_per_socket : int;  (** NUMA geometry, for creation affinity. *)
  (* §3.6 techniques, individually ablatable (Figures 9-14). *)
  dir_distribution : bool;
      (** honour the distributed-directory flag at mkdir; when off, all
          directories are centralized at their home server. *)
  dir_broadcast : bool;
      (** contact all servers in parallel for readdir/rmdir; when off, the
          per-server RPCs are issued sequentially. *)
  direct_access : bool;
      (** client libraries read/write the shared buffer cache directly;
          when off, file data moves through RPCs to the server. *)
  dir_cache : bool;  (** client-side directory lookup cache. *)
  creation_affinity : bool;
      (** place new inodes on a server close to the creating core. *)
  dist_width : int option;
      (** {e extension} (§6): distribute each directory over only this
          many servers instead of all of them, so broadcast operations
          (readdir, rmdir) touch a bounded subset. [None] reproduces the
          paper: every distributed directory spans every server. *)
  block_stealing : bool;
      (** {e extension} (§3.2): when a server's buffer-cache partition
          runs dry it steals free blocks from a peer instead of failing
          with ENOSPC. The paper describes this but does not implement
          it; default off for fidelity. *)
  buffer_cache_blocks : int;  (** total shared buffer cache, in 4K blocks. *)
  pcache_lines : int;  (** private-cache capacity per core, in 64B lines. *)
  (* {e extension}: robustness (fault injection, timeouts, recovery). *)
  shard_plan : string;
      (** ring-membership plan for [Sharded] placement (see
          [Hare_place.Place.parse_plan]): [add@CYCLES] activates the next
          spare physical server, [remove:SID@CYCLES] drains one;
          [;]-separated. [""] (default) keeps membership static — the
          zero-cost, bit-identical-to-[Split] path. *)
  fault_plan : string;
      (** fault-plan spec string (see [Hare_fault.Plan]); [""] disables
          injection entirely — the zero-cost default. *)
  rpc_deadline : int;
      (** base RPC deadline in cycles; [0] (default) means wait forever
          and send no idempotency metadata — the paper's behaviour. Must
          be positive when a fault plan is set. *)
  rpc_retries : int;
      (** attempts per RPC before giving up with [EIO] (deadline doubles
          each retry, with RNG jitter between attempts). *)
  partial_broadcast : bool;
      (** when a broadcast op (readdir) cannot reach a server, return the
          surviving servers' entries ([true], default) or raise [EIO]
          ([false]). *)
  (* {e extension}: overload control and graceful degradation (PR 6).
     Every knob defaults to "off", reproducing the paper's behaviour
     bit-identically. *)
  mailbox_capacity : int;
      (** bound on each file server's request mailbox, in messages.
          Senders wait for a credit (queue slot) before their message is
          admitted, so a saturated server exerts backpressure instead of
          growing its queue without bound. [0] (default) = unbounded,
          the paper's behaviour. *)
  deadline_propagation : bool;
      (** carry the client's remaining deadline on the RPC envelope;
          servers drop requests that have already expired before paying
          their dispatch and handler costs (counted as shed work). Off
          by default; requires [rpc_deadline > 0]. *)
  rpc_deadline_max : int;
      (** explicit cap on the per-attempt retry deadline growth (the
          deadline doubles each retry). [0] (default) keeps the legacy
          cap of [64 * rpc_deadline]. *)
  retry_budget : int;
      (** per-(client, server) retry token bucket: each retransmission
          spends a token, every 10 successful calls to that server earn
          one back (up to the bucket size), and an empty bucket turns
          the retry into an immediate [EIO] give-up — so retries cannot
          amplify an overload. [0] (default) = unlimited retries within
          [rpc_retries], the paper's behaviour. *)
  breaker_threshold : int;
      (** per-(client, server) circuit breaker: after this many
          consecutive RPC give-ups the breaker opens and calls to that
          server fast-fail with [EIO] (no message sent) until
          [breaker_cooldown] cycles pass; the next call is a half-open
          probe that closes the breaker on success or re-opens it on
          failure. [0] (default) disables breakers. *)
  breaker_cooldown : int;
      (** cycles an open breaker waits before admitting a probe. *)
  shed_watermark : int;
      (** server-side priority load shedding: with more than this many
          requests still queued, background-class requests (unlink
          inode reclaim, block stealing) are answered [EBUSY] without
          execution; above twice the watermark, data-class requests
          (read/write/alloc) are shed too. Metadata requests are never
          shed. [0] (default) disables shedding. *)
  (* {e extension}: asynchronous RPC pipeline (PR 2). All three knobs
     default to 1, which reproduces the paper's strictly synchronous
     one-request-per-message protocol bit-identically. *)
  rpc_window : int;
      (** client-side pipelining: maximum RPCs a client keeps in flight
          with deferred awaits on the independent hot paths (close,
          unlink's inode half, broadcast fan-out under a fault plan).
          [1] (default) awaits every call synchronously, as the paper
          does. Retried requests keep their (client, seq) idempotency
          tag across deferral, so server-side dedup still applies. *)
  batch_max : int;
      (** server-side batch dispatch: a server drains up to this many
          queued requests per wakeup. The context switch, the dispatch
          preamble and the blocking-receive notification are paid once
          per batch; each later request pays only the already-delivered
          receive cost ([Costs.recv_ready]) as it is served, so handler
          costs and reply latencies are unchanged. [1] (default) is the
          paper's one-request-per-wakeup loop. *)
  alloc_extent : int;
      (** extent-granularity allocation: [Alloc_blocks] asks for up to
          [alloc_extent - 1] blocks of read-ahead beyond the immediate
          need. The blocks a file holds past its size are the extent
          lease: a direct writer grows into them without an RPC,
          collapsing N per-block RPCs on append-heavy workloads into
          ~N/extent. The last close and truncate take the lease back. A
          crash-restart keeps it, and so do later closes of a file whose
          open descriptors the crash forgot. [1] (default) allocates one
          block per need, as the paper does. *)
  dircache_capacity : int;
      (** bound on the client directory cache, in entries, with LRU
          eviction past the bound; [0] (default) means unbounded — the
          paper's behaviour. *)
  trace_enabled : bool;
      (** {e extension}: attach a span-trace sink at boot
          ([Hare_trace.Trace]). Recording is pure host-side bookkeeping
          and charges zero simulated cycles, so traced and untraced runs
          of the same seed are bit-identical; off by default. *)
  trace_cap : int;
      (** trace ring-buffer capacity in events; when full, the oldest
          event is dropped and a dropped-events counter incremented.
          0 = no span ring: {e profile-only} tracing — the per-opcode
          cycle-bucket attribution is still maintained but no events are
          retained, roughly halving the host-side cost of a traced run,
          and exports are cleanly metadata-only. Either way the
          simulated clock is untouched. *)
  trace_ring : bool;
      (** [false] is a synonym for [trace_cap = 0]: [Machine.boot] maps
          it to an empty ring. Kept only because [perfbench/runner.ml]
          sets it; new code should set [trace_cap]. On by default. *)
  trace_retain : int;
      (** {e extension} (PR 9): tail-based span retention — keep the
          complete span trees (bucket vector, admission server, queue
          depth at admission, per-server blocked-wait grants) of the
          slowest this-many root syscalls {e per latency class},
          immune to ring overwrite, for the blame report
          ([Hare_metrics.Blame]). [0] (default) = off; requires
          [trace_enabled]. Host-side only — zero simulated cycles. *)
  metrics_interval : int;
      (** {e extension} (PR 9): sample the machine's gauges (mailbox
          depths, flow credits, breaker states, shed/retry counters,
          pcache hit rate, live fibers, per-server load, ring
          imbalance) every this-many simulated cycles into
          [Hare_metrics.Metrics] ring buffers. [0] (default) = no
          sampler attached. Sampling is pure host-side bookkeeping:
          clocks are bit-identical with it on or off. *)
  check_enabled : bool;
      (** {e extension}: attach the coherence sanitizer at boot
          ([Hare_check.Check]): vector-clock happens-before race
          detection over the shadow cache state plus protocol lint
          rules. Pure host-side bookkeeping, zero simulated cycles —
          checked and unchecked runs of the same seed are
          bit-identical; off by default. *)
  seed : int64;
  costs : Costs.t;
}

val default : t
(** 40 cores (4 sockets × 10), timeshare placement, round-robin exec
    placement, all techniques enabled, 2 GB buffer cache — the paper's
    standard configuration. *)

(** {2 The knob table}

    One row per [hare_cli run] flag that sets one field: the field, the
    flag (no dashes), its cmdliner help, and the field's bound or the
    flag's switch. The CLI, {!validate} and [Figures.techniques] read it. *)

type bound =
  | Positive  (** "[field] must be at least 1" *)
  | Zero_means of string  (** "[field] must be non-negative (0 = ...)" *)

type setting =
  | Int of { docv : string; bound : bound; get : t -> int; set : t -> int -> t }
  | Switch of (t -> t)

type knob = {
  field : string;
  flag : string;
  doc : string;
  setting : setting;
  technique : string option;
      (** a §3.6 technique's figure label; its switch turns it off *)
}

val knobs : knob list

val validate : t -> (unit, string) result
(** Check internal consistency: each {!knobs} bound first, then sizes,
    split bounds, cross-field rules, and that the fault plan parses and
    each of its crash and stall events names a {!physical_servers}. *)

val nservers : t -> int
(** Number of {e logical} file servers implied by the placement — the
    hashing space for inode and directory-entry placement. *)

val physical_servers : t -> int
(** Number of physical server processes to boot: [nservers] plus the
    spare servers a shard plan activates mid-run. Equals [nservers]
    whenever the shard plan is empty. *)

val server_cores : t -> int list
(** Core ids that run a file server. *)

val app_cores : t -> int list
(** Core ids available to applications (and scheduling servers). *)

val socket_of_core : t -> int -> int
