(** Robustness counters.

    One record per fault injector, server and client; {!merge} folds them
    into a machine-wide aggregate. All counters stay at zero when fault
    injection is disabled — a cheap way for tests to assert the machinery
    is inert. *)

include Counters.S

val drops : key  (** messages dropped by the injector *)

val dups : key  (** messages duplicated by the injector *)

val delays : key  (** messages delayed by the injector *)

val blackholed : key  (** messages discarded because server down *)

val timeouts : key  (** RPC deadline expirations observed *)

val retries : key  (** RPC resends after a timeout *)

val giveups : key  (** RPCs that exhausted their retry budget *)

val dedup_hits : key  (** duplicate requests absorbed by servers *)

val crashes : key  (** server crash events *)

val restarts : key  (** server restart events *)

val aborted : key  (** queued/parked requests errored by a crash *)

val tokens_recovered : key  (** fd tokens re-opened after a crash *)

val cache_flushes : key  (** dircache full flushes on reconnect *)

val partial_broadcasts : key  (** broadcasts that skipped a server *)

val blocks_rebuilt : key  (** free blocks recovered on restart *)

(* overload control; all zero when the knobs are off *)
val flow_blocks : key  (** sends that waited for a mailbox credit *)

val shed_expired : key  (** requests dropped as already expired *)

val shed_load : key  (** requests answered EBUSY above watermark *)

val fast_fails : key  (** RPCs fast-failed by an open breaker *)

val budget_denied : key  (** retries denied by an empty token bucket *)

val breaker_opens : key  (** closed/half-open -> open transitions *)

val breaker_half_opens : key  (** open -> half-open (probe admitted) *)

val breaker_closes : key  (** half-open -> closed (probe succeeded) *)

val pp : Format.formatter -> t -> unit
(** Prints the non-zero counters (or ["no faults"]). *)
