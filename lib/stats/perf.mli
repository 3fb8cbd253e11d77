(** Pipelining / batching / extent-allocation counters.

    One record per client library and per file server; {!merge} folds
    them into a machine-wide aggregate. With the paper-faithful knobs
    (window 1, batch 1, extent 1) every counter except the batch
    bookkeeping stays at zero, so tests can assert the machinery is
    inert. *)

include Counters.S

val window_hwm : key
(** peak number of in-flight deferred RPCs observed in a window; merges
    with [max] *)

val deferred : key  (** RPCs issued with a deferred await *)

val deferred_errors : key
(** deferred replies that came back as errors (reported here because
    the issuing syscall already returned) *)

val batches : key  (** server dispatch wakeups *)

val batched_msgs : key  (** requests across all batches *)

val lease_hits : key
(** block needs satisfied by a held extent lease, no RPC *)

val lease_misses : key  (** block needs that required an Alloc RPC *)

val lease_blocks : key  (** blocks allocated ahead of need *)

val dedup_evicted : key
(** server dedup entries purged under the client's acked low-water mark
    — hygiene, not loss: an acked tag can never be retransmitted. Zero
    when requests carry no idempotency tags. *)

val batch_hist : key array
(** [batch_hist.(n)] counts batches of exactly [n] requests; the last
    bucket collects every larger batch. Left out of {!to_list}. *)

val note_window : t -> int -> unit
(** [note_window t depth] raises the high-water mark to [depth]. *)

val note_batch : t -> int -> unit
(** [note_batch t size] records one server wakeup that drained [size]
    requests. *)

val report : t -> unit
(** The labelled counters as a table, then the batch-size histogram
    ("size:count" pairs), the mean batch size and the fraction of block
    needs an extent lease served without an Alloc RPC. *)
