(** Deterministic discrete-event simulation engine.

    Simulated entities (applications, file servers, scheduling servers) run
    as {e fibers}: OCaml functions executed under an effect handler that
    interprets simulation effects — advancing simulated time, suspending on
    a condition, spawning further fibers. Time is a global cycle counter,
    a native int (63-bit) inside the engine and an [int64] at this
    interface; events scheduled for the same instant run in insertion
    order, so a given seed always produces the same execution.

    Fibers must only perform simulation effects while running under
    {!run}. *)

type t
(** A simulation instance. *)

type fiber
(** Handle on a spawned fiber. *)

exception Deadlock of string
(** Raised by {!run} when no events remain but blocked fibers exist; the
    payload lists the blocked fibers' names, the non-zero probe depths
    and every bus subscriber's diagnostics (the trace's recent spans). *)

exception Fiber_failure of string * exn
(** Raised by {!run} when a fiber terminates with an uncaught exception;
    carries the fiber name and the original exception, and
    [Printexc.to_string] prints both. *)

val create : ?seed:int64 -> unit -> t
(** [create ?seed ()] makes a fresh simulation; [seed] (default [1L])
    initializes the root RNG. *)

val now : t -> int64
(** Current simulated time in cycles. *)

val now_cycles : t -> int
(** {!now} as a native int, the engine's own representation: no [int64]
    box per read, so per-charge paths ([Core_res.compute], RPC waits)
    prefer it. *)

val rng : t -> Rng.t
(** The engine's root RNG (split it rather than sharing it widely). *)

val spawn : t -> ?daemon:bool -> name:string -> (unit -> unit) -> fiber
(** [spawn t ~name f] creates a fiber that starts at the current simulated
    time. May be called from inside or outside a running simulation.
    [daemon] fibers (servers polling their mailboxes forever) do not count
    as live work: the simulation ends, without a deadlock report, when
    only daemons remain blocked. *)

val run : t -> unit
(** Execute events until none remain. Raises {!Deadlock} if blocked fibers
    remain, or {!Fiber_failure} if any fiber raised. *)

val run_for : t -> int64 -> unit
(** [run_for t budget] executes events until none remain or simulated time
    would exceed [now t + budget]; remaining events stay queued. *)

val fiber_id : fiber -> int

val live_fibers : t -> int
(** Number of non-daemon fibers that have started but not finished. *)

val registered_fibers : t -> int
(** Number of fibers (daemons included) currently in the registry —
    spawned but not yet finished. Finished fibers are pruned, so this
    stays bounded on long open-loop runs. *)

val peak_fibers : t -> int
(** High-water mark of {!registered_fibers} over the run. *)

val spawned_fibers : t -> int
(** Total fibers ever spawned (a monotone counter). *)

val events_executed : t -> int
(** Total events the engine has executed; divided by wall-clock time this
    is the engine's host-side throughput (the bench's
    [sim_events_per_sec]). *)

val current_fid : t -> int
(** Id of the fiber currently executing, or [-1] between events. O(1)
    field read — the allocation-free replacement for
    [fiber_id (self ())] on hot instrumentation paths. *)

(** {1 Effects — callable only from inside a fiber} *)

val self : unit -> fiber
(** The currently-running fiber. *)

val sleep : int64 -> unit
(** Advance this fiber's view of time by the given number of cycles without
    occupying any core (pure waiting). *)

val sleep_cycles : int -> unit
(** [sleep] with a native-int duration. Semantically identical; the
    immediate-int payload boxes no [int64], and the fiber parks its own
    continuation and pushes its own resume closure, so a sleep allocates
    only the effect value and its continuation (7 minor words). Hot paths
    ([Core_res.compute]) prefer it. *)

val sleep_on : t -> int -> unit
(** [sleep_on t d] is [sleep_cycles d] inside a fiber of [t], without
    the effect when nothing else can run first: a wake-up due strictly
    before every pending event (and within {!run_for}'s horizon) takes
    its step in place — the clock moves, a sequence number and a step
    are consumed and the [Step] event is emitted, exactly as if the
    fiber had parked and been resumed. With an explorer attached it
    always parks. *)

val schedule_at : t -> ?tag:int -> int64 -> (unit -> unit) -> unit
(** [schedule_at t ?tag time f] runs the callback [f] at absolute simulated
    [time] (which must be [>= now t]). [f] runs outside any fiber and must
    not perform simulation effects; it may wake fibers via wakers. [tag]
    (default 0, an opaque event) labels the event for the schedule explorer —
    callers scheduling a mailbox delivery pass {!tag_deliver} so the
    explorer knows the event's footprint family. *)

type waker = unit -> unit
(** Calling a waker reschedules its suspended fiber at the simulated time
    of the call. A waker must be invoked at most once: a second call, or
    a call after the fiber has moved on to a later suspension, raises
    [Failure "waker for fiber NAME invoked twice"]. *)

val suspend : (waker -> unit) -> unit
(** [suspend register] parks the current fiber and calls [register waker].
    The fiber resumes when (and only when) [waker] is invoked — typically
    stored in a queue by a synchronization primitive. *)

val obs : t -> Obs.t
(** The engine's observer bus. The engine emits a [Step] before every
    event it executes; the rest of the stack emits message, cache, span,
    counter and lint events. *)

(** {1 Schedule exploration}

    A pluggable strategy over the engine's only source of schedule
    freedom: the order among events due at the {e same} simulated cycle.
    The deterministic engine always runs them in insertion (seq) order;
    a real non-cache-coherent machine guarantees no such order. An
    attached explorer is offered every such tie and picks which event
    lands first — index 0 reproduces the deterministic order
    bit-identically. Everything here is host-side bookkeeping: an
    explorer that always answers 0 leaves clocks and opcounts
    untouched. *)

val set_explorer : t -> (time:int -> (int * int) array -> int) -> unit
(** [set_explorer t choose]: [choose ~time cands] picks an index into
    [cands], the [(seq, tag)] pairs of every event due at cycle [time],
    sorted by ascending seq. Called only when two or more are due. The
    explorer observes the steps it caused through {!obs}. *)

val tag_deliver : int -> int
(** [tag_deliver uid]: the event delivers into mailbox object [uid]
    (from {!new_object}). *)

type tag_kind = Opaque | Resume of int | Deliver of int

val tag_kind : int -> tag_kind
(** Decode an action tag. *)

val new_object : t -> int
(** Allocate a shared-object uid (used by mailboxes at creation).
    Host-side counter only. *)

(** {1 Deadlock diagnostics} *)

val register_probe : t -> name:string -> (unit -> int) -> int
(** [register_probe t ~name depth] registers a named pending-depth probe
    (typically a mailbox's queue length). When {!run} raises {!Deadlock},
    the report appends every probe with a non-zero depth, so a lost-reply
    hang shows at a glance where messages piled up. Returns a probe id
    for {!unregister_probe}; slots are recycled. *)

val unregister_probe : t -> int -> unit
(** Remove a probe registered by {!register_probe} (idempotent). Called
    on file-server crash/teardown so {!pending_depths} never scans dead
    mailboxes. *)

val probe_count : t -> int
(** Number of currently registered probes. *)

val pending_depths : t -> string list
(** Formatted ["name=depth"] strings for all probes with non-zero depth. *)
