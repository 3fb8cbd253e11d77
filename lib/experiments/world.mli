(** Runnable "worlds" — the systems under evaluation.

    A world boots a machine from a {!Hare_config.Config.t} and exposes
    the {!Hare_api.Api.t} surface plus enough control to run an init
    process and read the simulated clock. A world names only what Hare
    and the Linux baseline both implement, plus {!WORLD.machine}. Two
    worlds and one configuration reproduce the paper's three systems:
    Hare itself ({!Hare_w}), Linux tmpfs/ramfs ({!Linux_w}), and the
    UNFS3-style loopback NFS ({!unfs_config} over {!Hare_w}). *)

module type WORLD = sig
  type world

  type proc

  val name : string

  val boot : Hare_config.Config.t -> world

  val api : world -> proc Hare_api.Api.t

  val spawn_init : world -> name:string -> (proc -> int) -> proc

  val run : world -> unit

  val seconds : world -> float

  val syscalls : world -> Hare_stats.Opcount.t

  val exit_status : world -> proc -> int option

  val machine : world -> Hare.Machine.t option
  (** The simulated Hare machine behind the world, whose own accessors
      give everything only Hare has: the trace, metrics, perf and
      robustness counters, the engine and the server loads. [None] for
      the Linux baseline. *)
end

module Hare_w : WORLD with type world = Hare.Machine.t and type proc = Hare_proc.Process.t

module Linux_w :
  WORLD
    with type world = Hare_baseline.Linux_world.t
     and type proc = Hare_baseline.Linux_world.proc

(** [unfs_config base] turns a configuration into the UNFS3 baseline: a
    single dedicated file-server core, all data through RPC (no direct
    buffer-cache access), centralized directories, and the kernel
    loopback network-stack cost added to every message (§5.3.3). *)
val unfs_config : Hare_config.Config.t -> Hare_config.Config.t
