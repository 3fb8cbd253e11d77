(** The client's RPC transport: one {!send} and one {!await}, from which
    synchronous calls, the deferral window and broadcasts are built.

    Under the retry protocol ([rpc_deadline > 0]) a retryable request
    carries a (client, seq) idempotency tag, passes its server's circuit
    breaker at send time, and is awaited along a deadline ladder with
    jittered backoff and a per-server retry budget. Every copy re-reads
    the ring route; an [EMOVED] bounce is resent under the same tag to
    the new owner without counting against the ladder or the breaker.
    Without a deadline every send is reliable and awaited unbounded.
    DESIGN.md §1m states the full contract. *)

open Hare_proto

type t

type pending
(** One request on the wire, sent and not yet awaited. *)

val create :
  engine:Hare_sim.Engine.t ->
  config:Hare_config.Config.t ->
  cid:int ->
  core:Hare_sim.Core_res.t ->
  servers:(Wire.fs_req, Wire.fs_resp) Hare_msg.Rpc.t array ->
  ?place:Hare_place.Place.t ->
  robust:Hare_stats.Robust.t ->
  perf:Hare_stats.Perf.t ->
  unit ->
  t
(** [servers] is indexed by physical server id; every other argument
    taking a server speaks logical home ids, routed through [place]
    (identity when absent). Timeouts, retries and breaker activity are
    counted in [robust], the deferral window in [perf]. *)

val send : t -> deferred:bool -> int -> Wire.fs_req -> pending
(** [send t ~deferred home req] addresses [req] to logical home [home]
    (it rides the envelope and picks the route), counts one RPC, admits
    a tagged request through the breaker, allocates its tag and sends
    the first copy. A request an open breaker fast-fails is counted and
    never sent; its {!await} is [Error EIO]. A [deferred] copy is
    awaited later, so it carries no propagated deadline. *)

val await : t -> ?poll:bool -> pending -> Wire.fs_resp
(** Wait for a sent request's final outcome: with [poll] (for deferred
    sends; default false) take a reply already in hand at the ready-slot
    cost, otherwise block, along the deadline ladder when tagged. Every
    delivered reply counts as breaker and budget success; a give-up is
    [Error EIO]. *)

val call : t -> int -> Wire.fs_req -> Wire.fs_resp
(** Synchronous RPC: {!await} of a non-deferred {!send}. *)

val defer :
  t -> ?ino:Types.ino -> ?on_stale:(unit -> unit) -> int -> Wire.fs_req ->
  Wire.fs_resp option
(** Issue a request whose success payload nobody reads through the
    deferral window: [None] when deferred (its failure is only counted
    in [perf]), [Some result] when [rpc_window = 1]
    made it synchronous or the breaker fast-failed it. A full window
    first awaits its oldest entry. [ino] is the inode the request
    mutates, for {!drain_ino}. A deferred request that fails with a
    {!stale_token} runs [on_stale] when it is awaited (default: nothing),
    whose own failure is counted like the request's; a synchronous
    caller gets the error and runs its own. *)

val drain_window : t -> unit
(** Await every deferred request. *)

val drain_ino : t -> Types.ino -> unit
(** Await deferred requests, oldest first, until none mutates [ino]. *)

val multicast : t -> int list -> Wire.fs_req -> Wire.fs_resp list
(** [multicast t homes req] sends [req] to each home and returns the
    outcomes in order. All legs fly at once under reliable directory
    broadcast, up to [rpc_window] deferred legs under the retry
    protocol, one at a time otherwise. *)

val stale_token : t -> Errno.t -> bool
(** [EBADF] under the retry protocol: a crashed server forgot the
    descriptor token, and the caller should recover it. *)

val trip_breaker : t -> int -> unit
(** Force physical server [sid]'s breaker open now, as if its give-up
    threshold had just been crossed (test hook; no-op when breakers are
    off or the breaker is already open). *)

val rpc_count : t -> int

val moved_retries : t -> int

val open_breakers : t -> int
