(** Consistent-hash placement of logical file-server homes onto physical
    servers, with live rebalancing.

    Every inode and directory-entry shard hashes (in [Hare_proto.Types])
    onto a *logical home* in [0, nhomes). Logical homes are stable for
    the lifetime of a machine — they are what `ino.server` stores — and
    this module maps them onto *physical* servers through a mutable
    routing table. With a membership-stable ring the route is the
    identity and every code path collapses to the static [Split]
    behaviour bit-for-bit.

    Rebalancing uses rendezvous (highest-random-weight) hashing: each
    physical server owns [vnodes] pseudo-random points per home, and a
    membership change moves exactly the homes whose top-weight point
    belongs to the joining server (or whose owner left) — the classic
    consistent-hashing minimal-disruption property. *)

type event =
  | Add of { at : int64 }  (** activate the next spare physical server *)
  | Remove of { sid : int; at : int64 }
      (** drain physical server [sid] and retire it from the ring *)

type t

val create : nhomes:int -> vnodes:int -> events:event list -> t
(** [nhomes] logical homes routed over [nhomes + adds] physical servers
    (spares boot idle and activate at their [Add] event). The initial
    route is the identity. *)

val nhomes : t -> int

val nphys : t -> int

val vnodes : t -> int

val events : t -> event list

val epoch : t -> int

val phys : t -> int -> int
(** [phys t home] is the physical server currently owning [home]. *)

val set_route : t -> home:int -> dst:int -> unit

val active : t -> int -> bool

val activate : t -> int -> unit

val deactivate : t -> int -> unit

val homes_of : t -> int -> int list
(** Logical homes currently routed to a physical server (ascending). *)

val weight : t -> home:int -> srv:int -> int
(** Rendezvous weight: max over the server's [vnodes] hash points. *)

val plan_add : t -> int -> int list
(** Homes that move to newly-activated server [q]: those whose ring
    argmax over [active ∪ {q}] is [q]. If the hash selects none (tiny
    rings), the single best-weighted home is forced over so an add is
    never a no-op. Call after [activate]. *)

val plan_remove : t -> int -> (int * int) list
(** [(home, dst)] moves draining server [p]: every home routed to [p]
    re-assigned to its argmax among the remaining active servers. Call
    after [deactivate]. *)

val commit : t -> unit
(** Bump the ring epoch (one per membership change applied). *)

(** {1 Counters (host-side, cost-free)} *)

val note_migration : t -> src:int -> dst:int -> unit

val note_abort : t -> unit

val migrations : t -> int
(** Homes successfully handed off. *)

val moved_in : t -> int -> int
(** Homes handed to a physical server; {!moved_out}: handed away. *)

val moved_out : t -> int -> int

val aborted : t -> int
(** Migrations abandoned (busy shard that never drained). *)

(** {1 Plan parsing} *)

val parse_plan : string -> (event list, string) result
(** Grammar: items separated by [';'];
    [add@CYCLES] activates the next spare at time [CYCLES];
    [remove:SID@CYCLES] drains physical server [SID]. *)

val count_adds : string -> int
(** Adds in a textual plan ([0] if it does not parse). *)
