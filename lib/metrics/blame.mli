(** Tail-latency blame reports (PR 9).

    For each latency class, examine the tail-retained span trees at or
    above the class p99 and report what made them slow: dominant cycle
    bucket, dominant server (by blocked-wait cycles, falling back to
    admission counts), and queue depth at admission. *)

type t = {
  b_class : string;
  b_n : int;  (** retained tail ops examined *)
  b_p99 : int64;  (** class p99 over the full root-span log *)
  b_bucket : string;  (** dominant bucket across the examined ops *)
  b_bucket_share : float;  (** its share of their total cycles, 0..1 *)
  b_srv : int;  (** dominant physical server; -1 = no RPC sent *)
  b_srv_share : float;  (** its share of attributed server cycles *)
  b_qdepth_mean : float;  (** mean queue depth at admission; -1 = unknown *)
  b_qdepth_max : int;  (** worst queue depth at admission; -1 = unknown *)
  b_worst_op : string;  (** slowest examined op *)
  b_worst_dur : int;  (** its duration, cycles *)
}

val critical_path : Hare_trace.Trace.retained -> (string * int) list
(** One retained op's bucket decomposition, largest first, zero buckets
    dropped. The buckets sum to the op's elapsed cycles exactly, so
    this is the critical path through the request. *)

val of_trace : Hare_trace.Trace.t -> t list
(** One report per latency class that has both completed root spans and
    retained trees, in {!Hare_stats.Latency.class_names} order. Empty
    when retention was off. *)

val print : t list -> Hare_trace.Trace.retained list -> unit
(** The reports as a table, then the critical path of the slowest of
    the retained span trees (given slowest first); a one-line notice
    when there are no reports. *)

val to_json : t -> Hare_stats.Json.t
(** Every field; shares to three decimals, the mean depth to two. *)
