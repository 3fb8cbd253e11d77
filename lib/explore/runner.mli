(** Systematic schedule exploration (PR 10).

    Drives a {!Scenario} repeatedly, each run under a different
    resolution of the engine's same-cycle event ties (the only schedule
    freedom a deterministic discrete-event simulator has), and judges
    every completed run with the PR 5 coherence sanitizer {e and} the
    {!Oracle} linearizability checker.

    Strategies:

    - {!Dpor} — exhaustive depth-first enumeration with sleep-set +
      persistent-set partial-order reduction. Two same-cycle events
      commute unless their footprints intersect (same mailbox, same
      DRAM line, or an opaque event); schedules that only reorder
      commuting events are explored once.
    - {!Pct} — seeded random-priority scheduling (PCT-style): each
      actor (fiber or mailbox) gets a random priority, the
      highest-priority candidate wins, and priorities are occasionally
      demoted so low-probability orderings still surface.
    - {!Rand} — seeded uniform random choice at every tie.
    - {!Replay} — follow a recorded choice list (ordinal 0 beyond its
      end): deterministic reproduction of any reported violation.
    - {!Deterministic} — ordinal 0 everywhere: bit-identical to the
      engine's native order; one run.

    Every violation carries the ordinal list that produced it, so
    [hare_cli explore SC --replay CSV] reproduces it exactly. *)

type strategy =
  | Deterministic
  | Dpor
  | Pct of int  (** seed *)
  | Rand of int  (** seed *)
  | Replay of int list

val strategy_name : strategy -> string

type violation = {
  v_kind : string;  (** "sanitizer" | "linearizability" | "crash" *)
  v_detail : string;
  v_choices : int list;
      (** ordinal picked at each choice point, in order — the replay
          recipe *)
}

type stats = {
  schedules : int;  (** completed executions *)
  choice_points : int;  (** ties offered across all executions *)
  max_depth : int;  (** most choice points in any single execution *)
  sleep_blocked : int;  (** executions pruned as redundant by sleep sets *)
  complete : bool;
      (** DPOR only: the whole reduced schedule tree was enumerated
          within budget (and no violation cut the search short) *)
  violations : violation list;
}

val explore :
  scenario:Scenario.t ->
  ?mutate:string ->
  strategy:strategy ->
  budget:int ->
  unit ->
  stats
(** [budget] (at least 1) caps completed executions. Exploration stops
    early at the first violation (its replay is what matters, not its
    multiplicity).
    @raise Invalid_argument on an unknown mutation name, a [budget]
    below 1, or a replayed ordinal that is not one of its tie's
    candidates. *)
