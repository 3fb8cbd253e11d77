(** Block stealing between file servers (extension, §3.2: the paper's
    prototype leaves it unimplemented).

    A request that finds this server's buffer-cache partition dry is
    parked, and a helper fiber asks the peers — one at a time,
    round-robin — to donate free blocks, so the dispatch loop never
    blocks. Each landed steal retries every parked request; once every
    peer has declined since the last success, they fail with [ENOSPC].
    Inert unless the configuration turns [block_stealing] on. *)

type t

val create :
  engine:Hare_sim.Engine.t ->
  config:Hare_config.Config.t ->
  sid:int ->
  core:Hare_sim.Core_res.t ->
  blocks:Blocklist.t ->
  t

val set_peers :
  t -> (Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.t array -> unit
(** Every server's endpoint, indexed by server id. *)

val park : t -> retry:(Home.request -> unit) -> Home.request -> unit
(** A request that ran out of blocks: answer [ENOSPC] when stealing is
    off or there is no peer; otherwise park it and start a steal unless
    one is in flight. [retry] re-handles each parked request after a
    steal lands. *)

val donate : t -> count:int -> Home.reply -> unit
(** Serve a peer's [STEAL_BLOCKS]: give up to [count] free blocks, but
    at most half of what is free, to stay useful to local files. *)

val busy : t -> bool
(** A steal is in flight or requests are parked behind one. *)

val abort : t -> int
(** Server crash: the parked requests are answered [EIO] and counted.
    An in-flight steal stays with its helper fiber, which adopts the
    donation whenever it lands. *)

val stolen : t -> int
(** Blocks adopted from peers. *)
