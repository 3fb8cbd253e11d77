(** The open-loop overload workload: paced mail-style operations whose
    errors (EBUSY sheds, EIO give-ups, ENOENT skips) are counted per run
    rather than raised. *)

type counters = {
  mutable sent : int;  (** operations issued *)
  mutable ok : int;  (** completed *)
  mutable shed : int;  (** EBUSY: server load shed *)
  mutable fast_fail : int;  (** EIO: retry give-up or open breaker *)
  mutable skipped : int;  (** ENOENT: target's deliver was itself refused *)
}

val default_period : int
(** Mean inter-arrival gap per worker, cycles (12,000). *)

val make : ?period:int -> unit -> Spec.t * counters
(** A fresh instance of the workload with its own zeroed counters;
    [period] defaults to {!default_period}. *)

val spec : Spec.t
(** [fst (make ())]: the instance in {!All.specs}, whose counters are
    not observable — runs that report them build their own with
    {!make}. *)

type preset = {
  config : Hare_config.Config.t;
  workers : int;  (** worker processes: 3x the machine's cores *)
  period : int;  (** mean inter-arrival gap: 30,000 cycles *)
}

val preset : Hare_config.Config.t -> preset
(** The overload-control operating point: [c] with one dedicated server
    core (Split 1) and the control plane open — RPC deadline 60k cycles
    with deadline propagation, 6 retries, backoff cap 240k, mailbox
    capacity 24, retry budget 12, breakers at 6 give-ups with a 150k
    cooldown, shed watermark 8 — driven by 3x cores workers at a mean
    period of 30k cycles, about twice the server's service rate. *)
