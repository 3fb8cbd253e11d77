(** A file server's idempotency memory (exactly-once under retries): one
    entry per tagged request [(client, seq)], where the client is the
    request's sender.

    A [Pending] entry collects the reply slots of duplicate copies that
    arrive while the original is still executing or parked; a [Done]
    entry caches the response, which retransmissions replay instead of
    re-executing. The memory is volatile (a crash forgets it) and bounded
    by two eviction rules: the ack low-water mark every tagged request
    carries — everything at or below it is client-complete and can never
    be retransmitted — and a size cap that prunes completed entries far
    behind the newest sequence number. ['w] is the server's reply slot. *)

type 'w t

val create : perf:Hare_stats.Perf.t -> 'w t
(** Evictions under the ack mark are counted in [perf.dedup_evicted]. *)

val reset : 'w t -> unit
(** Forget everything (server crash). *)

type 'w pending
(** The in-flight record of a fresh request, answered by {!finish}. *)

type 'w admission =
  | Fresh of 'w pending  (** first copy: execute it, then {!finish} *)
  | Replay of Hare_proto.Wire.fs_resp
      (** completed earlier: answer with the cached response *)
  | Joined  (** still executing: the copy's slot is answered with it *)

val admit : 'w t -> int -> Hare_msg.Rpc.meta -> 'w -> 'w admission
(** [admit d client meta slot]: apply the copy's ack mark, then look its
    [(client, seq)] up; a miss records the request as pending. The slot
    is kept only for [Joined]. *)

val finish : 'w pending -> Hare_proto.Wire.fs_resp -> 'w list option
(** The original's first answer: caches it as done — unless the client
    acked the sequence number meanwhile, so the entry would outlive every
    possible retransmission — and returns the joined slots to answer
    with it. [None] once the request was already answered. *)

val seen : 'w t -> int -> Hare_msg.Rpc.meta -> bool
(** Whether this [(client, seq)] already has an entry, i.e. the copy is a
    duplicate. Pure: creates no per-client state. *)

val shed : 'w t -> int -> Hare_msg.Rpc.meta -> unit
(** Record an overload shed: duplicates of the copy replay [EBUSY]. *)

val export : 'w t -> (int * int * Hare_proto.Wire.fs_resp) list
(** Every completed entry as [(client, seq, response)], for a shard
    migration: [(client, seq)] is globally unique, so the new owner of a
    home can replay responses the old owner produced. *)

val import : 'w t -> (int * int * Hare_proto.Wire.fs_resp) list -> unit
(** Merge exported entries, skipping those already known or below the
    client's ack mark. *)
