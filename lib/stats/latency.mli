(** Latency percentile summaries over span durations (PR 6).

    Callers walk the trace ring and hand in per-request cycle durations;
    {!of_durations} summarizes them with nearest-rank percentiles.
    {!class_of_op} maps a client syscall span name to its overload
    priority class (metadata / data / background), matching the
    server-side shed classes. *)

type dist = {
  n : int;  (** sample count *)
  p50 : int64;
  p95 : int64;
  p99 : int64;
  lmax : int64;  (** worst sample *)
}

val empty : dist
(** The zero-sample distribution. Its percentile fields are 0 only as
    placeholders — an idle class has {e no} latency, not zero latency —
    so consumers must branch on {!is_empty} (or [n = 0]) before printing
    or comparing them. *)

val is_empty : dist -> bool
(** [true] iff the distribution summarizes no samples (run start, idle
    classes). *)

val of_durations : int64 list -> dist
(** Nearest-rank percentiles of the given cycle durations ({!empty} for
    the empty list). One sample maps every percentile (and [lmax]) to
    that sample; two samples map p50 to the smaller and p95/p99 to the
    larger, per the nearest-rank definition. *)

val percentile : int64 array -> float -> int64
(** [percentile a q] is the nearest-rank q-th percentile of the {e
    sorted} array [a]: the smallest element such that at least q% of
    samples are <= it. Raises [Invalid_argument] on an empty array or
    [q] outside (0, 100] — never a silent 0. *)

val class_of_op : string -> string option
(** Priority class of a client syscall span name, or [None] for spans
    that are not client syscalls. *)

val class_names : string list
(** Display order: meta, data, background. *)

val print : (string * dist) list -> unit
(** Per-class distributions as a table; nothing for no classes. *)

val to_json : dist -> Json.t
(** [{"n", "p50", "p95", "p99", "max"}]. *)
