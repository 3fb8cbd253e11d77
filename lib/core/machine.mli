(** Booting and running a simulated Hare machine.

    [boot] assembles the full system of Figure 2 on the simulated
    non-cache-coherent multicore: one core resource and private cache per
    core, the shared DRAM holding the partitioned buffer cache, a file
    server per configured server core, a client library and a scheduling
    server per core, and the root directory on the designated server.

    Typical use:
    {[
      let m = Machine.boot { Config.default with ncores = 4 } in
      Machine.register_program m "worker" (fun proc args -> ...);
      let init, console = Machine.spawn_init m (fun proc -> ...) in
      Machine.run m;
      assert (Machine.exit_status m init = Some 0)
    ]} *)

type t

val boot : Hare_config.Config.t -> t

val engine : t -> Hare_sim.Engine.t

val config : t -> Hare_config.Config.t

val kctx : t -> Hare_proc.Process.kctx

val servers : t -> Hare_server.Server.t array

val clients : t -> Hare_client.Client.t array

val place : t -> Hare_place.Place.t option
(** The consistent-hash ring, present iff the placement is [Sharded]. *)

val server_loads : t -> (int * int * int) list
(** Per physical server: [(sid, ops served, peak request-queue depth)].
    Ops accumulate since boot; peaks since the last {!reset_perf}. *)

val total_moved_retries : t -> int
(** Client re-sends after an [EMOVED] bounce (shard migration races). *)

val total_moved_rejects : t -> int
(** Server-side [EMOVED] bounces issued. *)

val register_program : t -> string -> Hare_proc.Program.body -> unit

val spawn_init :
  t ->
  ?core:int ->
  ?cwd:string ->
  ?args:string list ->
  name:string ->
  (Hare_proc.Process.t -> string list -> int) ->
  Hare_proc.Process.t * Buffer.t
(** Create an initial process (fds 0-2 bound to a fresh console buffer,
    returned) on [core] (default: the first application core) and
    schedule its body. *)

val run : t -> unit
(** Run the simulation to completion (all processes exited). *)

val run_for : t -> int64 -> unit

val exit_status : t -> Hare_proc.Process.t -> int option

val now : t -> int64
(** Simulated time, cycles. *)

val seconds : t -> float
(** Simulated time, seconds. *)

(** {1 Aggregate statistics} *)

val total_syscalls : t -> Hare_stats.Opcount.t
(** Merged per-client POSIX-call counts (Figure 5). *)

val total_server_ops : t -> Hare_stats.Opcount.t

val total_rpcs : t -> int

val total_invals : t -> int

val robustness : t -> Hare_stats.Robust.t
(** Merged fault/recovery counters: injector verdicts, per-server
    crash/dedup counts, per-client timeout/retry counts, and dircache
    flushes. All zero when no fault plan is configured. *)

val perf : t -> Hare_stats.Perf.t
(** Merged pipelining/batching/extent counters from every server and
    client: window high-water mark, batch-size histogram, extent-lease
    hit rate. Inert (batches = wakeups, everything else zero) when
    [rpc_window], [batch_max] and [alloc_extent] are all 1. *)

val trace : t -> Hare_trace.Trace.t option
(** The trace sink installed at boot when [config.trace_enabled], or
    [None]. The sink is host-side bookkeeping only: the simulation's
    clocks and operation counts are bit-identical with tracing on or
    off. *)

val metrics : t -> Hare_metrics.Metrics.t option
(** The time-series gauge registry installed at boot when
    [config.metrics_interval > 0], or [None]. Sampling happens on the
    engine's event-loop hook and is host-side bookkeeping only:
    simulated clocks and operation counts are bit-identical with
    metrics on or off. *)

val check : t -> Hare_check.Check.t option
(** The coherence sanitizer installed at boot when
    [config.check_enabled], or [None]. Like the trace sink it is
    host-side bookkeeping only: simulated clocks are bit-identical with
    checking on or off. *)

val reset_perf : t -> unit
(** Zero every server's and client's {!Hare_stats.Perf} and
    {!Hare_stats.Robust} counters (including the fault injector's and
    the endpoints' credit-block counts), so a subsequent timed region
    reports only its own activity. *)

val utilization : t -> (int * float) list
(** Per-core busy fraction (busy cycles / elapsed cycles) — how evenly
    the run loaded the machine. *)
