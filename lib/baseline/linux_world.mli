(** The shared-memory Linux baseline as a runnable world.

    Combines {!Lfs} (tmpfs/ramfs) with a Linux-style process model:
    fork may place the child on any core (the kernel scheduler balances),
    descriptors are shared kernel objects (no RPCs, no proxies), pipes
    are kernel buffers. Implements the same {!Hare_api.Api.t} surface as
    the Hare stack so every benchmark runs unmodified on both — which is
    exactly the comparison the paper makes (§5.3.3, §5.5). *)

type t

type proc

val boot : Hare_config.Config.t -> t

val api : t -> proc Hare_api.Api.t

val spawn_init : t -> name:string -> (proc -> int) -> proc * Buffer.t

val run : t -> unit

val seconds : t -> float

val exit_status : t -> proc -> int option

val syscalls : t -> Hare_stats.Opcount.t

