(** End-to-end span tracing and cycle attribution: a subscriber
    of the engine's observer bus ({!Hare_sim.Obs}).

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
    bit-identical on the simulated clock (asserted by [test_obs]).

    {2 Attribution}

    Each traced operation ([Span_open] .. [Span_close]) carries a
    per-fiber {e context} holding six cycle buckets (compute / send /
    queue-wait / dispatch / cache / DRAM). Emitters decompose their next
    [Core_res.compute] with a pending split ([Pending], [Msg_send],
    [Reply_read]); each [Cpu] charge folds the elapsed core time into
    the context — the gap between request and start is queue-wait, the
    context-switch penalty is dispatch, the remaining cost lands in the
    pending decomposition (default: compute). Time a client spends
    blocked on an RPC reply ([Reply_read]) is attributed from the
    server-side context recorded for that request's id, capped at the
    observed wait; anything the buckets do not explain is queue-wait,
    so a closed context's bucket sum equals its elapsed cycles
    {e exactly} — no unattributed remainder. *)

type t

type bucket = Hare_sim.Obs.bucket =
  | Compute
  | Send
  | Queue
  | Dispatch
  | Cache
  | Dram  (** Where a cycle went (see {!Hare_sim.Obs.bucket}). *)

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

val create : ?retain:int -> cap:int -> Hare_sim.Obs.t -> t
(** [create ~cap bus] makes a sink subscribed to [bus] whose ring holds
    at most [cap] events.
    [cap] must be non-negative; with [cap = 0] there is no ring and the
    sink is profile-only:
    attribution (contexts, buckets, the per-opcode profile) runs as
    usual, but instants, counters and span emission are not recorded
    and {!events} is always empty — about half the host-side overhead,
    for consumers (benchmarks) that never export the event stream.
    [retain] (default 0 = off) turns on tail-based retention: the
    complete record of the slowest [retain] root spans {e per latency
    class} is kept — bucket vector, admission server, queue depth at
    admission, per-server blocked-wait grants — regardless of ring
    overwrite; see {!retained}. Span ids are drawn from the bus's
    request-id sequence ({!Hare_sim.Obs.fresh_span}), so a request and
    the server span serving it share one id space; the sink adds its
    most recent closed spans to deadlock reports. *)

val declare_track : t -> track:int -> name:string -> unit
(** Name a track (one per simulated core, plus auxiliary tracks); the
    exporter emits the names as Perfetto thread metadata. *)

val tracks : t -> (int * string) list
(** Declared tracks, in declaration order. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val ring_enabled : t -> bool
(** Whether this sink retains events (false = profile-only: span args
    are never built). *)

val events : t -> event list
(** Ring contents, oldest first. *)

(** {1 Tail-based retention (PR 9)} *)

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
