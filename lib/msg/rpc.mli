(** Request/response messaging over {!Mailbox}.

    A server owns an endpoint and loops on {!recv}; each request carries a
    reply slot. Replies are themselves messages (the responder pays a send
    cost, the caller a receive cost). {!call_async}/{!await} let a client
    overlap several outstanding RPCs — the mechanism behind directory
    broadcast (§3.6.2).

    Requests may carry a {!meta} idempotency tag (per-client sequence
    number). Tagged requests are the ones the fault injector may drop,
    duplicate or delay; servers use the tag to deduplicate retries, and
    {!await_deadline} bounds the wait so a lost message surfaces as
    [Error `Timeout] instead of a hang. *)

type meta = { m_client : int; m_seq : int; m_ack : int }
(** Idempotency tag: the sending client's id and its private, monotonic
    request sequence number. Retries of one logical request reuse one
    tag. [m_ack] is the client's completed low-water mark — every seq at
    or below it has a final client-side outcome and will never be
    retransmitted, so the server can purge those dedup entries. *)

type ('req, 'resp) request = {
  body : 'req;
  reply : ?payload_lines:int -> 'resp -> unit;
      (** Charges the send cost to the endpoint's owner core when
          invoked; may be stashed and invoked later (how servers park
          blocking operations — pipe reads, rmdir serialization —
          without blocking their dispatch loop). Replying to a
          duplicated copy of an already-answered tagged request is a
          no-op. *)
  meta : meta option;  (** idempotency tag *)
  span : int;  (** the request's bus id; 0 = unobserved *)
  deadline : int64;  (** absolute expiry, simulated cycles; 0 = none *)
}
(** A received request, as the server side sees it. *)

type ('req, 'resp) t

val endpoint :
  ?name:string ->
  ?capacity:int ->
  ?faults:Hare_fault.Injector.link ->
  owner:Hare_sim.Core_res.t ->
  costs:Hare_config.Costs.t ->
  unit ->
  ('req, 'resp) t
(** [name]/[capacity]/[faults] are forwarded to the underlying
    {!Mailbox.create}; a bounded endpoint makes callers wait for a
    queue credit before their request is admitted. *)

val unwatch : ('req, 'resp) t -> unit
(** Deregister the endpoint's queue-depth probe from the engine (e.g.
    when the owning server crashes — a dead server's queue should not
    appear in deadlock reports). Idempotent. *)

val rewatch : ('req, 'resp) t -> unit
(** Re-register the probe dropped by {!unwatch} (server restart).
    No-op if currently watched or the endpoint was never named. *)

(** [call t ~from req] sends [req] and blocks until the response arrives. *)
val call :
  ('req, 'resp) t ->
  from:Hare_sim.Core_res.t ->
  ?payload_lines:int ->
  'req ->
  'resp

(** [call_async t ~from req] sends [req] and returns the reply future
    with the request's bus id (0 when no observer is attached); pass
    both to {!await}, so the time this fiber later spends blocked on the
    reply is attributed from the server-side breakdown and the reply
    carries its happens-before edge. [meta], when given, tags the
    request for dedup and marks it unreliable (subject to the fault
    plan). [abs_deadline] rides the envelope (deadline propagation):
    0 = never expires. *)
val call_async :
  ('req, 'resp) t ->
  from:Hare_sim.Core_res.t ->
  ?payload_lines:int ->
  ?meta:meta ->
  abs_deadline:int64 ->
  'req ->
  'resp Hare_sim.Ivar.t * int

(** [await ~from ~costs ~span future] blocks for the response and
    charges the receive cost to [from]. [span] is the request's bus id,
    from {!call_async} (0 = unobserved). With [poll] (default
    false) a reply already in hand is taken as a poll of a ready slot:
    only [recv_ready] is charged, and no blocked time is attributed. *)
val await :
  from:Hare_sim.Core_res.t ->
  costs:Hare_config.Costs.t ->
  span:int ->
  ?poll:bool ->
  'resp Hare_sim.Ivar.t ->
  'resp

(** Deadline-bounded {!await}. *)
val await_deadline :
  engine:Hare_sim.Engine.t ->
  from:Hare_sim.Core_res.t ->
  costs:Hare_config.Costs.t ->
  deadline:int64 ->
  span:int ->
  'resp Hare_sim.Ivar.t ->
  ('resp, [> `Timeout ]) result

(** [recv t] (server side) blocks for a request and returns it with its
    reply function (see {!request}). *)
val recv : ('req, 'resp) t -> 'req * (?payload_lines:int -> 'resp -> unit)

val recv_full : ('req, 'resp) t -> ('req, 'resp) request
(** Like {!recv}, with the request's tag, span and deadline. *)

(** [recv_batch_full t ~max] blocks for the first request, then drains up
    to [max - 1] already-queued requests in arrival order (see
    {!Mailbox.recv_many}): the server-side batch-dispatch primitive.
    Only the first request's receive cost is charged; pair each later
    request with {!charge_recv} as it is served. [~max:1] is exactly
    {!recv_full}. *)
val recv_batch_full : ('req, 'resp) t -> max:int -> ('req, 'resp) request list

(** [charge_recv t] charges the already-delivered receive cost to the
    endpoint's owner; for the messages of {!recv_batch_full} past the
    first (queued before the wakeup, so no blocking notification). *)
val charge_recv : ('req, 'resp) t -> unit

(** [drain_pending t] empties the request queue without charging receive
    costs; crash handling uses this to abort everything in flight. *)
val drain_pending : ('req, 'resp) t -> ('req, 'resp) request list

val pending : ('req, 'resp) t -> int

val peak_pending : ('req, 'resp) t -> int
(** Deepest request queue observed at any send to this endpoint since
    the last {!reset_peak} — host-side bookkeeping only (per-server
    load-distribution statistics); charges nothing. *)

val reset_peak : ('req, 'resp) t -> unit

val flow_blocked : ('req, 'resp) t -> int
(** Requests whose senders waited for a mailbox credit (bounded
    endpoints only). *)

val reset_flow : ('req, 'resp) t -> unit
