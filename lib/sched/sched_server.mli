(** Per-core scheduling server (§3.5).

    Listens for exec RPCs: spawns the named program as a fresh local
    process with the transferred descriptor table, replies with the new
    pid, and reports the child's eventual exit status back to the proxy
    the caller left behind. Also delivers signals to local processes. *)

type t

val create :
  kctx:Hare_proc.Process.kctx ->
  registry:Hare_proc.Program.t ->
  core_id:int ->
  endpoint:
    (Hare_proto.Wire.sched_req, Hare_proto.Wire.sched_resp) Hare_msg.Rpc.t ->
  unit ->
  t

val start : t -> unit
