(** Continuous time-series telemetry (PR 9).

    A registry of named {e gauges} — closures reading live machine state
    (mailbox depths, flow credits, breaker states, shed/retry counters,
    cache hit rates, fiber counts, per-server load, ring imbalance) —
    sampled on a fixed simulated-cycle grid into fixed-capacity ring
    buffers. Sampling is driven by the observer bus's step events
    ({!attach}); this module never sees the engine.

    The zero-perturbation invariant of PR 4/5 holds here too: sampling
    is pure host-side bookkeeping. A gauge read must not charge cycles,
    schedule events, or draw from an RNG, so runs with and without
    metrics are bit-identical on the simulated clock (asserted in
    [test_obs]). *)

type t

val create : ?cap:int -> interval:int -> unit -> t
(** [create ~interval ()] makes a registry sampled every [interval]
    simulated cycles, each gauge ring holding the [cap] (default 1024)
    most recent samples — older samples are overwritten ({!dropped}).
    Both must be positive. *)

val register : t -> name:string -> (unit -> int) -> unit
(** Add a gauge. All registration must happen before the first
    {!sample} (boot time), so every gauge has a full value ring;
    registering later raises [Invalid_argument]. *)

val attach : t -> Hare_sim.Obs.t -> track_base:int -> unit
(** Subscribe to a bus: the first engine step at or past each multiple
    of the interval (counted from attachment) takes one sample, stamped
    at the latest grid point due. Each sample is also published on the
    bus as one [Counter] per gauge, on tracks numbered from
    [track_base] in registration order (callers pass the first id above
    the per-core and DRAM tracks), so an attached trace records them as
    Perfetto counter tracks. *)

val sample : t -> now:int64 -> unit
(** Take one sample at stamp [now]: read every gauge into the rings
    (and onto the bus, when attached). Called on the sampling grid;
    tests call it directly. *)

val interval : t -> int

val ngauges : t -> int

val samples : t -> int
(** Samples taken since creation (including any overwritten). *)

val dropped : t -> int
(** Samples overwritten by ring rotation (oldest-first). *)

val series : t -> (string * (int * int) list) list
(** Per gauge: the retained (stamp, value) points, oldest first. Stamps
    are simulated cycles on the sampling grid. *)

type summary = {
  s_name : string;
  s_n : int;  (** retained samples *)
  s_min : int;
  s_max : int;
  s_mean : float;
  s_last : int;  (** most recent sample *)
}

val summaries : t -> summary list
(** One summary per gauge, in registration order. *)

val print_summaries : summary list -> unit
(** One table row per gauge. *)

val summary_to_json : summary -> Hare_stats.Json.t
(** Every field, the mean to two decimals. *)

val series_json : t -> Hare_stats.Json.t
(** The raw series: per gauge its [[stamp, value]] pairs. *)
