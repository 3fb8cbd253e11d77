(** Runs one benchmark on one world and measures it.

    The driver boots a fresh machine, registers the benchmark's helper
    programs and a worker program, runs the (untimed) setup in the init
    process, then spawns the workers via [spawn] — i.e. the workers are
    placed on cores by the system's own policy, exactly like the paper's
    benchmark processes — and times from after setup to the last worker
    exit. *)

(** One pass of the workload loop, its timed region stamped: what
    {!Make.measure} turns into a {!result}. *)
type 'w timed = {
  w : 'w;  (** the finished world *)
  failures : int;  (** workers that exited nonzero; all if init never did *)
  procs : int;  (** [?nprocs], else the number of application cores *)
  t0 : float;  (** simulated seconds at the start of the timed region *)
  t1 : float;  (** simulated seconds once every worker was reaped *)
  calls : Hare_stats.Opcount.t;  (** the timed region's system-call mix *)
  crash : (string * exn) option;
      (** the fiber whose exception ended the run early, and that
          exception ([Engine.Fiber_failure]'s payload): [w] is then the
          world as the failure left it *)
}

(** What one run measured, in one of two windows. The throughput fields
    always cover the timed region. The observer fields cover the window
    {!Make.measure} is given: the timed region under {!Make.run}, which
    also restarts the perf counters and the profile there; the whole run,
    setup included, under [hare_cli run]. *)
type result = {
  bench : string;
  world : string;
  nprocs : int;
  scale : int;
  elapsed : float;  (** simulated seconds of the timed region. *)
  ops : int;
  throughput : float;  (** ops per simulated second. *)
  syscalls : Hare_stats.Opcount.t;
      (** The timed region's op mix (setup excluded, as in Figure 5). *)
  profile : Hare_trace.Trace.row list;
      (** Per-opcode cycle attribution since the last profile reset
          (sorted by total cycles, descending). Empty unless the world
          was booted with [trace_enabled]. *)
  latencies : (string * Hare_stats.Latency.dist) list;
      (** Per-priority-class (meta/data/background) latency percentiles
          of the window's completed syscalls, from the trace's root
          spans; classes with no samples are left out. Empty unless the
          world was booted with [trace_enabled]. *)
  robust : Hare_stats.Robust.t;
      (** Fault/overload counters since the last perf reset (all zero
          for the Linux baseline). *)
  engine_events : int;
      (** Engine events, peak live fibers and fibers spawned over the
          whole run (boot + setup + timed region); 0 on the Linux
          baseline. *)
  peak_fibers : int;
  spawned_fibers : int;
  loads : (int * int * int) list;
      (** Per physical file server [(sid, ops served, peak queue
          depth)]: ops over the whole run, peak depths since the last
          perf reset. Empty on the Linux baseline. *)
  gauges : Hare_metrics.Metrics.summary list;
      (** Per-gauge time-series summaries over the whole run, in
          registration order. Empty unless [metrics_interval > 0]. *)
  metrics_interval : int;
      (** The sampling grid, simulated cycles; 0 = metrics were off. *)
  metrics_samples : int;  (** Samples taken over the whole run. *)
  knee : Hare_metrics.Knee.t option;
      (** The window's saturation knee: the first sub-window (8 sampling
          intervals with metrics on, else 250,000 cycles) whose p99
          exceeded 1.5x the flat-regime floor. [None] when the series
          stays flat or tracing was off. *)
  blame : Hare_metrics.Blame.t list;
      (** Per-class tail-latency blame reports from the span trees
          retained since the last profile reset. Empty unless
          [trace_retain > 0]. *)
}

val imbalance : (int * int * int) list -> float
(** Max/mean served-operation ratio over the [(sid, ops, peak)] loads
    of the servers that served anything; 1.0 is a perfectly even
    ring. *)

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
    W.world timed
  (** [exec ~config spec] runs the workload loop once — boot, register
      the helper programs and [bench-worker], spawn init, setup, spawn
      the workers, reap them — and returns the finished world with the
      failure count and the timed region's stamps. It never raises on
      worker failure, nor when a fiber raises: that ends the run, and
      [crash] carries it. [on_start] runs in init between setup and the
      first worker spawn, once the region's start is stamped; [after]
      runs in init once every worker is reaped and the end stamped.
      [nprocs] defaults to the number of application cores; the
      benchmark's exec-placement policy overrides the configuration's.
      [null_explorer] (default false) attaches an always-ordinal-0
      schedule explorer to the engine: the run must stay bit-identical
      to an unexplored one — the golden-clock test's zero-perturbation
      proof. *)

  val measure :
    config:Hare_config.Config.t ->
    scale:int ->
    since:float ->
    Hare_workloads.Spec.t ->
    W.world timed ->
    result
  (** [measure ~config ~scale ~since spec t] reads [t]'s world, crashed
      or not, into a {!result}: the one place a run's observer data is
      derived. [since] (simulated seconds) starts the window of
      [latencies] and [knee]; [config] and [scale] are [t]'s. *)

  val run :
    ?config:Hare_config.Config.t ->
    ?nprocs:int ->
    ?scale:int ->
    ?null_explorer:bool ->
    Hare_workloads.Spec.t ->
    result
  (** [run spec] executes the benchmark through {!exec} (default
      [config]: {!default_config} at 4 cores) and measures its timed
      region: perf counters and the cycle profile restart at its start,
      and {!measure} windows from [t0].
      Raises [Failure] if any worker exits nonzero, and
      [Engine.Fiber_failure] if a fiber raised. *)
end
