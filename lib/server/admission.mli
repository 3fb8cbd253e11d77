(** A file server's admission control: the verdict a queued request
    copy gets before it may execute.

    Three refusals, checked in this order. Above the shed watermark a
    fresh tagged copy of a deferrable class is answered [EBUSY] (data
    above twice the watermark, background above it, metadata never) —
    a categorical refusal tells the client to back off now, whereas an
    expiry drop costs it a full timeout, so a shed wins even over an
    expired copy. A tagged copy whose propagated deadline has passed is
    dropped without a reply: its client already sent a retransmission.
    A request whose envelope addresses a home this server does not host
    (it migrated away) is bounced with [EMOVED]. Admitting allocates nothing. *)

type t

val create :
  engine:Hare_sim.Engine.t ->
  config:Hare_config.Config.t ->
  core:Hare_sim.Core_res.t ->
  endpoint:(Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.t ->
  robust:Hare_stats.Robust.t ->
  dedup:Home.reply Dedup.t ->
  homes:Home.homes ->
  t
(** [homes] is the server's table of hosted homes, read live. Sheds and
    expiry drops count in [robust]; a shed is recorded in [dedup] so a
    duplicate replays its [EBUSY]. *)

val admit :
  t -> dispatch:bool -> (Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.request ->
  Home.t option
(** The dispatch loop's verdict: [Some h] lets the copy execute against
    [h], the record of the home its envelope addresses (resolved here,
    once; {!Home.unaddressed} for a request that names none); [None]
    means it was refused here, its envelope examination charged. With
    [dispatch = false] (a batch's later copies) an [EMOVED] bounce costs
    nothing, as the batch already paid the dispatch preamble. *)

val placed :
  t -> (Hare_proto.Wire.fs_req, Hare_proto.Wire.fs_resp) Hare_msg.Rpc.request ->
  Home.t option
(** Only the [EMOVED] check, for requests that queued while the server
    was down. *)

val moved_rejects : t -> int
(** [EMOVED] replies sent. *)
