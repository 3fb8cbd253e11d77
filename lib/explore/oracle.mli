(** Linearizability oracle for exploration scenarios (PR 10).

    Scenario programs record every POSIX call they issue — a {!Model.op},
    its result, invocation and response stamps on the simulated clock —
    and this module decides post-hoc whether some witness ordering of
    those calls is explained by {!Model.apply}, under Hare's
    {e close-to-open} contract (§3.2 of the paper): a witness must
    respect

    - each client's program order, and
    - real-time order {e only} from release points (close, unlink,
      mkdir, rmdir, rename) to acquire points (open, stat, readdir) — a
      release that completed before an acquire was invoked must precede
      it in the witness.

    Data operations concurrent in real time carry no edge, so a read
    overlapping a remote write may legally see either version — exactly
    the paper's contract, where visibility is only promised across a
    close-to-open pair. If no witness explains the recorded results the
    history is a consistency violation (e.g. a reopen-after-close that
    returned stale data).

    Pure arithmetic over the recorded history: nothing here touches the
    machine, the simulated clock, or any RNG. *)

type event = {
  e_client : int;  (** the model process whose handles the op names *)
  e_op : Model.op;
  e_result : (Model.value, Hare_proto.Errno.t) result;
  e_inv : int64;  (** invocation stamp (simulated cycles) *)
  e_res : int64;  (** response stamp *)
}

val check : event list -> (unit, string) Stdlib.result
(** [check history] searches for a witness ordering (DFS with
    memoization on the model state; histories are tiny), applying each
    event's op to the model as process [e_client]. Handles are the
    model's, so a descriptor outlives an unlink or a rename over its
    path as it does in Hare and POSIX. [Ok ()] when a witness explains
    every recorded result; [Error msg] names the violation otherwise.
    The list may be in any order — per-client sequencing is recovered
    from invocation stamps, which are strictly increasing within a
    client (one blocking call at a time). *)
