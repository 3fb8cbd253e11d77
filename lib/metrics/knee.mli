(** Automatic knee detection over a latency time series (PR 9).

    Buckets completed root spans into fixed windows of simulated time,
    computes each window's nearest-rank p99, and reports the first
    window whose p99 exceeds [factor] times the flat-regime baseline —
    the lowest judged p99 seen so far — the knee where an open-loop
    workload leaves the flat part of the latency/throughput curve.
    Judging against the floor rather than the previous window catches
    gradual climbs whose per-window slope stays under [factor]. *)

type t = {
  k_at : int;  (** start of the knee window (cycles) *)
  k_window : int;  (** window width used (cycles) *)
  k_before : int64;  (** flat-regime floor p99 (lowest pre-knee window) *)
  k_after : int64;  (** p99 of the knee window *)
  k_windows : int;  (** windows judged (enough samples), up to the knee *)
}

val detect : ?factor:float -> ?min_samples:int -> window:int -> (int * int) list -> t option
(** [detect ~window spans] over [(t0, dur)] cycle pairs (the trace's
    root-span log). Windows with fewer than [min_samples] (default 8)
    completions are skipped — they neither trigger nor reset the
    reference p99. [factor] (default 1.5) is the slope threshold; it
    must exceed 1, and [window] must be positive. [None] when the
    series never leaves the flat regime. *)

val print : t option -> unit
(** One line: where the knee is, or that there was none. *)

val to_json : t -> Hare_stats.Json.t
(** Every field but [k_at], which the caller places. *)
