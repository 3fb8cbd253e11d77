(** Shard migration (extension; the paper's servers are a fixed set,
    §3.1): the hand-off of one logical home between physical servers
    under a ring membership plan, and the coordinator that drives it. *)

type t
(** One server's side of the hand-off. *)

val create :
  homes:Home.homes ->
  pcache:Hare_mem.Pcache.t ->
  blocks:Blocklist.t ->
  dedup:Home.reply Dedup.t ->
  t
(** [homes] is the server's table of hosted homes, edited in place. *)

val pack :
  t ->
  home:int ->
  stealing:bool ->
  inval:(dir:Hare_proto.Types.ino -> name:string -> int -> unit) ->
  Home.reply ->
  unit
(** Serve [Migrate_out]. The home's invalidation callbacks fire through
    [inval]; requests parked behind a block steal ([stealing]) keep it
    here, as its own parked continuations do. *)

val install : t -> home:int -> pack:Hare_proto.Wire.pack -> Home.reply -> unit
(** Serve [Install_shard]. *)

val start :
  Hare_sim.Engine.t ->
  core:Hare_sim.Core_res.t ->
  servers:(Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.t array ->
  Hare_place.Place.t ->
  unit
(** Spawn the rebalancing coordinator on [core], unless the ring's
    membership plan is empty. It applies the plan in time order, moving
    homes between [servers] (indexed by physical id); a busy home is
    retried every 2,000 cycles, 50 times, then left where it is
    ({!Hare_place.Place.aborted}). *)
