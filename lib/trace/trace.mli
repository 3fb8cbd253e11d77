(** End-to-end span tracing and cycle attribution (PR 4).

    A sink collects three kinds of events on the {e simulated} clock:
    spans (an operation with a begin and an end — a client syscall, a
    server request execution), instants (a point occurrence — a context
    switch, a dropped message, a crash) and counters (a sampled value —
    mailbox depth, DRAM traffic). Events live in a bounded ring buffer:
    when it fills, the oldest event is overwritten and {!dropped} is
    incremented, so a sink never grows without bound.

    The invariant the whole design serves: recording is pure host-side
    bookkeeping. A sink never charges a core, never sleeps, never draws
    from an RNG — a traced run and an untraced run of the same seed are
    bit-identical on the simulated clock (asserted by [test_trace]).

    {2 Attribution}

    Each traced operation carries a per-fiber {e context} holding six
    cycle buckets (compute / send / queue-wait / dispatch / cache /
    DRAM). Charge sites decompose their next [Core_res.compute] with
    {!set_pending}; the compute hook ({!on_compute}) folds the elapsed
    core time into the context — the gap between request and start is
    queue-wait, the context-switch penalty is dispatch, the remaining
    cost lands in the pending decomposition (default: compute). Time a
    client spends blocked on an RPC reply is attributed from the
    server-side context recorded for that request's span id
    ({!on_blocked}), capped at the observed wait; anything the buckets
    do not explain is queue-wait, so a closed context's bucket sum
    equals its elapsed cycles {e exactly} — no unattributed remainder. *)

type t

(** Where a cycle went. *)
type bucket =
  | Compute  (** syscall traps, server op handlers, process work *)
  | Send  (** message marshalling + transfer, replies, receive copies *)
  | Queue  (** core backlog, mailbox wait, blocked-on-reply remainder *)
  | Dispatch  (** server dispatch preamble + context switches *)
  | Cache  (** private-cache line touches *)
  | Dram  (** DRAM line transfers (incl. cross-socket) *)

val nbuckets : int

val bucket_index : bucket -> int

val bucket_names : string list
(** Display order, matching {!bucket_index}. *)

type event =
  | Span of {
      id : int;
      parent : int;  (** 0 = root *)
      name : string;
      cat : string;
      track : int;
      t0 : int64;
      t1 : int64;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      track : int;
      ts : int64;
      args : (string * string) list;
    }
  | Counter of { name : string; track : int; ts : int64; value : int }

val create : ?retain:int -> cap:int -> unit -> t
(** [create ~cap ()] makes a sink whose ring holds at most [cap] events.
    [cap] must be non-negative; with [cap = 0] there is no ring and the
    sink is profile-only:
    attribution (contexts, buckets, the per-opcode profile) runs as
    usual, but {!instant}, {!counter} and span emission become no-ops
    and {!events} is always empty — about half the host-side overhead,
    for consumers (benchmarks) that never export the event stream.
    [retain] (default 0 = off) turns on tail-based retention: the
    complete record of the slowest [retain] root spans {e per latency
    class} is kept — bucket vector, admission server, queue depth at
    admission, per-server blocked-wait grants — regardless of ring
    overwrite; see {!retained}. *)

val declare_track : t -> track:int -> name:string -> unit
(** Name a track (one per simulated core, plus auxiliary tracks); the
    exporter emits the names as Perfetto thread metadata. *)

val tracks : t -> (int * string) list
(** Declared tracks, in declaration order. *)

val next_span : t -> int
(** Allocate a fresh span id (rides RPC envelopes so server-side work
    can be tied back to the request). Ids are positive; 0 means "no
    span". *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val ring_enabled : t -> bool
(** Whether this sink retains events (false = profile-only). Charge
    sites use it to skip building export-only decoration — span args,
    pretty-printed ids — that a profile-only sink would discard. *)

val events : t -> event list
(** Ring contents, oldest first. *)

val instant :
  t -> name:string -> track:int -> ts:int64 ->
  ?args:(string * string) list -> unit -> unit

val counter : t -> name:string -> track:int -> ts:int64 -> value:int -> unit

(** {1 Attribution contexts} *)

val ctx_active : t -> fid:int -> bool
(** Whether fiber [fid] has an open context (used to avoid nesting when
    one traced syscall calls another, e.g. process-exit close). *)

val ctx_open :
  t ->
  fid:int ->
  op:string ->
  track:int ->
  parent:int ->
  now:int64 ->
  args:(string * string) list ->
  int
(** Open a context for fiber [fid]; returns the fresh span id. If the
    fiber already has an open context this is a no-op returning 0. *)

val set_pending : t -> fid:int -> (bucket * int) list -> unit
(** Decompose fiber [fid]'s {e next} compute charge into buckets; cycles
    of that charge not covered by the list default to {!Compute}. A
    no-op when the fiber has no open context. *)

val on_compute :
  t -> fid:int -> elapsed:int -> cost:int -> switch:int -> unit
(** Called by the core model before it sleeps: [elapsed] cycles passed
    for the fiber, of which [cost] (including [switch] context-switch
    penalty) was charged work and the rest was waiting for the core.
    Folds everything into the open context (gap as {!Queue}, [switch] as
    {!Dispatch}, the rest per {!set_pending}). *)

val on_wait : t -> fid:int -> cycles:int -> unit
(** Pure waiting (retry backoff sleeps) inside an operation: {!Queue}. *)

val on_blocked : t -> fid:int -> span:int -> elapsed:int -> unit
(** The fiber was blocked [elapsed] cycles awaiting the reply to request
    [span]. If a server context was recorded for [span], its buckets are
    granted — capped at [elapsed] — in priority order (dispatch, compute,
    cache, DRAM, send, queue); the remainder is {!Queue}. *)

(** {1 Tail-based retention (PR 9)} *)

val retain_enabled : t -> bool
(** Whether this sink retains slow span trees ([retain > 0]). *)

val note_send : t -> fid:int -> srv:int -> depth:int -> unit
(** Client hook at RPC send time: annotate fiber [fid]'s open context
    with the physical server targeted and its mailbox depth. The first
    send of a context freezes the {e admission} pair ([rt_srv],
    [rt_qdepth]); every send updates the attribution target for the next
    {!on_blocked} grant. A no-op without an open context. *)

(** A retained span tree: one slow root syscall with its complete
    attribution. [rt_buckets] (indexed by {!bucket_index}) sums to
    [rt_dur] exactly, so its descending sort is the critical path
    through the request. [rt_children] lists the blocked-wait grants
    [(server, cycles)] in send order; [rt_srv]/[rt_qdepth] are -1 when
    the operation never sent an RPC. *)
type retained = {
  rt_op : string;
  rt_cls : string;  (** latency class ({!Hare_stats.Latency.class_of_op}) *)
  rt_t0 : int;
  rt_dur : int;
  rt_buckets : int array;
  rt_srv : int;
  rt_qdepth : int;
  rt_children : (int * int) list;
}

val retained : t -> retained list
(** The retained (slowest-k per class) span trees since the last
    {!reset_profile}, slowest first. Empty when retention is off. *)

val ctx_close_syscall : t -> fid:int -> now:int64 -> unit
(** Close fiber [fid]'s context as a root (client-syscall) span: any
    elapsed cycles the buckets do not cover are added to {!Queue} (so
    the bucket sum equals elapsed exactly), the per-opcode profile is
    updated, and the span is emitted. *)

val ctx_close_server : t -> fid:int -> now:int64 -> unit
(** Close fiber [fid]'s context as a server-side span: the bucket
    breakdown is recorded under the {e parent} (request) span id for a
    later {!on_blocked}, and the span is emitted. *)

(** {1 Consumers} *)

type row = {
  r_op : string;
  r_count : int;
  r_total : int64;  (** total simulated cycles across all calls *)
  r_buckets : int64 array;  (** indexed by {!bucket_index}; sums to [r_total] *)
}

val profile : t -> row list
(** Per-opcode attribution table, sorted by descending total cycles. *)

val reset_profile : t -> unit
(** Forget accumulated profile rows and the root-span log (driver:
    exclude benchmark setup). *)

val root_spans : t -> (string * int64 * int64) list
(** [(op, t0, duration)] for every completed root (client syscall) span
    since the last {!reset_profile}, in completion order. Recorded even
    in profile-only mode and never dropped by ring overwrite — latency
    percentiles should come from here, not from {!events}. *)

val to_chrome_json : t -> string
(** The ring as Chrome trace-event JSON (Perfetto-loadable): one
    complete-event per span, instants and counters on their tracks,
    thread-name metadata per declared track, events sorted by timestamp,
    one event per line. Deterministic for a deterministic run. *)

val recent_spans : t -> per_track:int -> string list
(** The last [per_track] closed spans of each declared track, formatted
    for deadlock reports (newest last). *)
