(** Benchmark descriptions (§5.2).

    A workload is world-polymorphic: its [setup] and [worker] bodies run
    against any {!Hare_api.Api.t} implementation, so the same benchmark
    binary-equivalently exercises Hare, the Linux baseline and the UNFS
    baseline — mirroring how the paper runs unmodified POSIX applications
    on all three systems. *)

type mode =
  | Workers  (** [nprocs] identical worker processes (most benchmarks). *)
  | Make
      (** a single driver process that parallelizes itself, make-style
          (the [build linux] benchmark: one make, [-j nprocs]). *)

type t = {
  name : string;
  mode : mode;
  exec_policy : Hare_config.Config.exec_policy;
      (** per-benchmark placement policy (§5.2: random for build linux
          and punzip, round-robin for the rest). *)
  uses_dist : bool;
      (** whether the benchmark requests distributed directories (§5.4
          lists: creates, renames, pfind dense, mailbench, build linux). *)
  setup : 'p. 'p Hare_api.Api.t -> 'p -> nprocs:int -> scale:int -> unit;
      (** untimed preparation run by the init process. *)
  worker : 'p. 'p Hare_api.Api.t -> 'p -> idx:int -> nprocs:int -> scale:int -> unit;
      (** timed body; [idx] in [0..nprocs-1] ([Make]: only idx 0 runs). *)
  programs :
    'p. 'p Hare_api.Api.t -> (string * ('p -> string list -> int)) list;
      (** helper programs the workload [spawn]s (cc, ld, ...). *)
  ops : nprocs:int -> scale:int -> int;
      (** operation count for throughput normalization. *)
}

val no_programs : 'p Hare_api.Api.t -> (string * ('p -> string list -> int)) list
