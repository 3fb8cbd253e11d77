(** Runs one benchmark on one world and measures it.

    The driver boots a fresh machine, registers the benchmark's helper
    programs and a worker program, runs the (untimed) setup in the init
    process, then spawns the workers via [spawn] — i.e. the workers are
    placed on cores by the system's own policy, exactly like the paper's
    benchmark processes — and times from after setup to the last worker
    exit. *)

type result = {
  bench : string;
  world : string;
  nprocs : int;
  scale : int;
  elapsed : float;  (** simulated seconds of the timed region. *)
  ops : int;
  throughput : float;  (** ops per simulated second. *)
  syscalls : Hare_stats.Opcount.t;  (** whole-run op mix. *)
  profile : Hare_trace.Trace.row list;
      (** Per-opcode cycle attribution of the timed region (sorted by
          total cycles, descending). Empty unless the world was booted
          with [trace_enabled]. *)
  latencies : (string * Hare_stats.Latency.dist) list;
      (** Per-priority-class (meta/data/background) latency percentiles
          of the timed region's completed syscalls, from the trace
          spans. Empty unless the world was booted with
          [trace_enabled]. *)
  robust : Hare_stats.Robust.t;
      (** Fault/overload counters of the timed region (reset alongside
          the perf counters; all zero for the Linux baseline). *)
  engine : World.engine_stats;
      (** Simulator event-loop counters for the whole run (boot + setup
          + timed region); all zero on the Linux baseline. *)
  loads : (int * int * int) list;
      (** Per physical file server [(sid, ops served, peak queue depth)]
          over the whole run; empty on the Linux baseline. *)
  imbalance : float;
      (** Max/mean served-operation ratio over the servers that served
          anything (1.0 = perfectly even; 1.0 when [loads] is empty). *)
  gauges : Hare_metrics.Metrics.summary list;
      (** Per-gauge time-series summaries over the whole run, in
          registration order. Empty unless [metrics_interval > 0]. *)
  metrics_interval : int;
      (** The sampling grid, simulated cycles; 0 = metrics were off. *)
  metrics_samples : int;  (** Samples taken over the whole run. *)
  knee : Hare_metrics.Knee.t option;
      (** First window of the timed region whose p99 latency exceeded
          1.5x the previous judged window's — the saturation knee.
          [None] when the series stays flat or tracing was off. *)
  blame : Hare_metrics.Blame.t list;
      (** Per-class tail-latency blame reports from the retained span
          trees. Empty unless [trace_retain > 0]. *)
}

val latencies_of_trace :
  ?since:int64 ->
  Hare_trace.Trace.t ->
  (string * Hare_stats.Latency.dist) list
(** Per-class latency distributions of the root syscall spans beginning
    at or after [since] (cycles); classes with no samples are omitted. *)

val default_config : ncores:int -> Hare_config.Config.t
(** The experiments' standard configuration: [ncores] cores, a scaled
    512 MiB buffer cache (the paper's 2 GiB would dominate host memory),
    everything else as {!Hare_config.Config.default}. *)

val with_fault_plan : string -> Hare_config.Config.t -> Hare_config.Config.t
(** [with_fault_plan plan c] sets [c]'s fault plan and, when the plan is
    non-empty and [c] has no RPC deadline, arms a 25,000-cycle one so
    clients retry what the plan drops. *)

module Make (W : World.WORLD) : sig
  val exec :
    ?nprocs:int ->
    ?scale:int ->
    ?null_explorer:bool ->
    ?on_start:(W.world -> unit) ->
    ?after:(W.world -> W.proc -> failures:int -> unit) ->
    config:Hare_config.Config.t ->
    Hare_workloads.Spec.t ->
    W.world * int
  (** [exec ~config spec] runs the workload loop once — boot, register
      the helper programs and [bench-worker], spawn init, setup, spawn
      the workers, reap them — and returns the finished world with the
      number of workers that exited nonzero (all of them if init never
      finished). It never raises on worker failure. [on_start] runs in
      init between setup and the first worker spawn (the start of the
      timed region); [after] runs in init once every worker is reaped.
      [nprocs] defaults to the number of application cores; the
      benchmark's exec-placement policy overrides the configuration's.
      [null_explorer] (default false) attaches an always-ordinal-0
      schedule explorer to the engine: the run must stay bit-identical
      to an unexplored one — the golden-clock test's zero-perturbation
      proof. *)

  val run :
    ?config:Hare_config.Config.t ->
    ?nprocs:int ->
    ?scale:int ->
    ?null_explorer:bool ->
    Hare_workloads.Spec.t ->
    result
  (** [run spec] executes the benchmark through {!exec} (default
      [config]: {!default_config} at 4 cores) and measures its timed
      region: perf counters and the cycle profile restart at its start.
      Raises [Failure] if any worker exits nonzero. *)
end
