(** Linearizability oracle for exploration scenarios (PR 10).

    Scenario programs record every POSIX call they issue — operation,
    result, invocation and response stamps on the simulated clock — and
    this module decides post-hoc whether some witness ordering of those
    calls is explained by a model VFS, under Hare's {e close-to-open}
    contract (§3.2 of the paper): a witness must respect

    - each client's program order, and
    - real-time order {e only} from release points (close, unlink,
      mkdir) to acquire points (open, stat) — a release that completed
      before an acquire was invoked must precede it in the witness.

    Data operations concurrent in real time carry no edge, so a read
    overlapping a remote write may legally see either version — exactly
    the paper's contract, where visibility is only promised across a
    close-to-open pair. If no witness explains the recorded results the
    history is a consistency violation (e.g. a reopen-after-close that
    returned stale data).

    Pure arithmetic over the recorded history: nothing here touches the
    machine, the simulated clock, or any RNG. *)

type op =
  | Open of { path : string; create : bool }
      (** returns a client-local handle on success *)
  | Close of { h : int }
  | Write of { h : int; data : string }  (** at the handle's offset *)
  | Read of { h : int }  (** everything from the handle's offset *)
  | Stat of { path : string }
  | Unlink of { path : string }
  | Mkdir of { path : string }

type result =
  | Ok_unit
  | Ok_handle of int  (** the client-local handle an open returned *)
  | Ok_int of int  (** bytes written *)
  | Ok_data of string  (** bytes read *)
  | Err of string  (** errno mnemonic, e.g. "ENOENT" *)

type event = {
  e_client : int;
  e_op : op;
  e_result : result;
  e_inv : int64;  (** invocation stamp (simulated cycles) *)
  e_res : int64;  (** response stamp *)
}

val check : event list -> (unit, string) Stdlib.result
(** [check history] searches for a witness ordering (DFS with
    memoization; histories are tiny). [Ok ()] when one explains every
    recorded result against the model VFS; [Error msg] names the
    violation otherwise. The list may be in any order — per-client
    sequencing is recovered from invocation stamps, which are strictly
    increasing within a client (one blocking call at a time). *)
