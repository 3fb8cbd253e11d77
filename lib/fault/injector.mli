(** Deterministic fault injector.

    One injector per machine, holding the parsed {!Plan.t} and a dedicated
    RNG (derived from the config seed, independent of the engine's root
    RNG so enabling faults never perturbs workload randomness). Each file
    server's request mailbox gets a {!link} with its own split RNG;
    [Mailbox.send] consults the link to decide each message's fate.

    Links also carry the server's availability state ([down] during a
    crash, [stalled_until] during a stall) so delivery and blackholing
    decisions live in one place. *)

type t

type link

val create : engine:Hare_sim.Engine.t -> seed:int64 -> Plan.t -> t

val stats : t -> Hare_stats.Robust.t
(** Injector-side counters (drops/dups/delays/blackholes). *)

val server_events : t -> Plan.server_event list
(** Crash/stall events sorted by trigger time. *)

val link : t -> sid:int -> link
(** The per-server link for server [sid] (memoized — every caller sees
    the same object); filters the plan's message rules down to those
    matching this server. *)

val down : link -> bool

val set_down : link -> bool -> unit

val stalled_until : link -> int64

val stall_until : link -> int64 -> unit
(** Raise the link's delivery floor to the given absolute time. *)

val note_blackholed : link -> unit
(** Count a message discarded because the server was down. *)

type verdict = Deliver | Drop | Duplicate | Delay of int64

val on_send : link -> unreliable:bool -> verdict
(** Roll the plan's dice for one message. Reliable sends
    ([unreliable:false]) always deliver. *)
