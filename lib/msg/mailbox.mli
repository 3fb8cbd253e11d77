(** Inter-core message channel with {e atomic delivery}.

    Modelled after the Pika messaging library the paper builds on: each
    endpoint owns a receive queue in shared memory. The property Hare's
    directory-cache invalidation protocol relies on (§3.6.1) holds by
    construction: when {!send} returns, the message {e is} in the
    receiver's queue, so a receiver that drains its queue before acting
    can never miss a message sent before its action began.

    Sending charges the sender's core; receiving charges the owner's
    core. Cross-socket sends pay a NUMA penalty. *)

type 'a t

val create :
  ?name:string ->
  ?capacity:int ->
  ?faults:Hare_fault.Injector.link ->
  owner:Hare_sim.Core_res.t ->
  costs:Hare_config.Costs.t ->
  unit ->
  'a t
(** [name], when given, registers the queue depth as an engine probe so
    deadlock reports can show where messages piled up. [capacity]
    bounds the queue: senders wait for a free slot (a credit) before
    their message is admitted — backpressure instead of unbounded
    growth; omitted = unbounded, the paper's behaviour. [faults]
    attaches an injector link: sends then route through the injector's
    dice. *)

val owner : 'a t -> Hare_sim.Core_res.t

val unwatch : 'a t -> unit
(** Deregister this mailbox's engine depth probe (no-op if unnamed or
    already unwatched). Called when the owning endpoint crashes so
    deadlock reports and probe scans skip dead mailboxes. *)

val rewatch : 'a t -> unit
(** Re-register the depth probe of a previously {!unwatch}ed named
    mailbox (no-op if unnamed or already watched); called on restart. *)

(** [send t ~from msg] delivers [msg]; on return the message is queued at
    the receiver. [payload_lines] (default 0) charges marshalling cost for
    bulk payloads.

    With an injector link attached, [unreliable] sends (default [false])
    are subject to the fault plan — they may be dropped, duplicated,
    delayed, or blackholed while the receiver is down. Reliable sends
    always enqueue (possibly late, if the link is stalled), preserving the
    atomic-delivery contract. Without a link, [unreliable] is ignored and
    delivery is exactly the fault-free fast path.

    [span] (default 0 = none) tags fault-injector verdicts in the trace
    with the request span the message carries; it does not affect
    delivery. *)
val send :
  'a t ->
  from:Hare_sim.Core_res.t ->
  ?payload_lines:int ->
  ?unreliable:bool ->
  ?span:int ->
  'a ->
  unit

(** [recv t] blocks until a message is available and returns it, charging
    the receive cost to the owner core. *)
val recv : 'a t -> 'a

(** [recv_many t ~max] blocks for the first message, then drains up to
    [max - 1] further messages that are already queued, in arrival order.
    Only the first message's receive cost is charged (the whole batch
    shares one wakeup / context switch); the caller must charge the
    remaining receives with {!charge_recv} as it handles each message.
    [recv_many t ~max:1] behaves exactly like {!recv}. *)
val recv_many : 'a t -> max:int -> 'a list

(** [charge_recv t] charges the already-delivered receive cost
    ([Costs.recv_ready]) to the owner core; pairs with the messages of
    {!recv_many} past the first, which were queued before the wakeup and
    so skip the blocking-notification path. *)
val charge_recv : 'a t -> unit

(** [poll t] returns a message if one is queued (charging receive cost),
    or [None] without cost — the cheap queue-empty check that makes the
    invalidation-drain-before-lookup pattern viable. *)
val poll : 'a t -> 'a option

(** [drain t] removes and returns every queued message without charging
    any receive cost; used by crash handling to abort in-flight requests.
    Drained messages do not count as received. *)
val drain : 'a t -> 'a list

val pending : 'a t -> int

val flow_blocked : 'a t -> int
(** Sends that had to wait for a credit because the bounded queue was
    full; always 0 for unbounded mailboxes. *)

val reset_flow : 'a t -> unit
(** Zero {!flow_blocked} (per-driver-run stats hygiene). *)
