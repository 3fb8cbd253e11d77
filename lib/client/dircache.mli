(** Client-side directory lookup cache (§3.6.1).

    One per client library (i.e. per core). Before every consultation the
    cache drains its invalidation mailbox: thanks to atomic message
    delivery, any invalidation a server sent before this lookup began is
    already queued, so draining first guarantees the cache never returns
    an entry the server invalidated before the lookup started. *)

type t

val mutate_drop_inval : bool ref
(** Sanitizer self-test hook: when set, {!drain} drops [Inval_entry]
    messages without applying them, so the sanitizer's dircache-stale
    rule must fire on the next hit of an invalidated entry. Never set
    outside tests. *)

val create :
  enabled:bool ->
  ?capacity:int ->
  ?robust:Hare_stats.Robust.t ->
  port:Hare_proto.Wire.inval Hare_msg.Mailbox.t ->
  unit ->
  t
(** [capacity] (default 0 = unbounded) bounds the number of cached
    entries; when full, the least-recently-used entry is evicted. Each
    full flush on [Inval_all] (a server restarted) counts as
    [cache_flushes] in [robust], the owning client's record (default: a
    private one). *)

(** [find t ~dir ~name] drains invalidations, then consults the cache.
    Always [None] when the cache is disabled. *)
val find :
  t ->
  dir:Hare_proto.Types.ino ->
  name:string ->
  Hare_proto.Wire.entry_info option

val add :
  t -> dir:Hare_proto.Types.ino -> name:string -> Hare_proto.Wire.entry_info -> unit

val remove : t -> dir:Hare_proto.Types.ino -> name:string -> unit

val size : t -> int

val hits : t -> int

val misses : t -> int

val invalidations : t -> int

val evictions : t -> int
(** Entries dropped by the capacity bound (0 when unbounded). *)
