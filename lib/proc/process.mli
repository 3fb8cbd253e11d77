(** Simulated processes.

    A process is a fiber pinned to one core, owning a file-descriptor
    table and a working directory and attached to its core's client
    library. Process ids encode the birth core ([Types.core_of_pid]), so
    signals route without shared state. The paper's restrictions apply:
    no threads within a process (§1), [fork] runs locally, migration
    happens only at [exec] (§3.5). *)

open Hare_proto

(** Kernel context: the per-machine state every process can reach. Built
    once by [Hare.Machine.boot]. *)
type kctx = {
  k_engine : Hare_sim.Engine.t;
  k_config : Hare_config.Config.t;
  k_cores : Hare_sim.Core_res.t array;
  k_clients : Hare_client.Client.t array;  (** per-core client libraries. *)
  k_sched_ports :
    (Wire.sched_req, Wire.sched_resp) Hare_msg.Rpc.t array;
      (** per-core scheduling servers. *)
  k_app_cores : int array;  (** cores applications may run on. *)
  k_pid_seq : int array;  (** per-core pid counters. *)
  k_proc_tables : t Hare_sim.Tbl.Int.t array;
      (** per-core pid → process, for local signal delivery. *)
}

and t = {
  pid : Types.pid;
  core_id : int;
  k : kctx;
  fdt : Hare_client.Fdtable.t;
  mutable cwd : string;
  mutable env : (string * string) list;
  exit_status : int Hare_sim.Ivar.t;
  mutable parent : t option;
  children : Children.t;  (** for [wait]; the child reports its exit. *)
  mutable handlers : (int * (int -> unit)) list;
  mutable killed : bool;
  mutable proxy_port : Wire.proxy_msg Hare_msg.Mailbox.t option;
      (** set while this process proxies for a remotely exec'd child. *)
  mutable rr_next : int;  (** round-robin exec placement state (§3.5). *)
  prng : Hare_sim.Rng.t;
}

exception Exited of int
(** Control exception implementing [Posix.exit]. *)

val make :
  k:kctx ->
  core:int ->
  ?pid:Types.pid ->
  ?parent:t ->
  fdt:Hare_client.Fdtable.t ->
  cwd:string ->
  env:(string * string) list ->
  rr_next:int ->
  unit ->
  t
(** Allocates a pid from the core's counter unless [pid] is given,
    registers the process in the core's table, and links it under
    [parent]. *)

val client : t -> Hare_client.Client.t

val core : t -> Hare_sim.Core_res.t

val find : kctx -> Types.pid -> t option
(** Look up a {e local} process (the caller must be on the pid's core). *)

val run : t -> ?on_exit:(int -> unit) -> (t -> int) -> unit
(** Spawn the process body as a fiber: runs [body t]; on return (or
    {!Exited}, or an uncaught [Errno.Error] which becomes status 1 and,
    when a subscriber wants {!Hare_sim.Obs.marks}, a [proc-errno] instant
    on the process's core track with its pid, errno and operand) it
    closes all fds, deregisters, fills [exit_status], notifies the
    parent's {!Children}, then calls [on_exit]. *)

val deliver_signal : t -> from:Hare_sim.Core_res.t -> int -> unit
(** Local delivery: relays to the remote child if the process is a proxy
    (§3.5), runs an installed handler, or applies the default action
    (SIGKILL/SIGTERM/SIGINT set [killed]). *)

val install_handler : t -> signal:int -> (int -> unit) -> unit

val sigterm : int
