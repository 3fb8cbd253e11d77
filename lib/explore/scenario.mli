(** Exploration micro-scenarios (PR 10).

    Each scenario boots a small checked machine (a couple of client
    cores against one file server), registers programs whose every
    POSIX call is recorded as an {!Oracle.event} (a {!Model.op}, its
    result and its stamps; a client's handles are its open ordinals,
    from 0), and hands the un-run machine to the exploration runner —
    which attaches a scheduler strategy to the engine {e before}
    [Machine.run], so every same-cycle tie in the event heap becomes a
    controllable choice point.

    Scenarios are deliberately tiny: exhaustive DPOR enumeration of one
    must finish within a CI budget. *)

type built = {
  b_machine : Hare.Machine.t;  (** booted, not yet run *)
  b_init : Hare_proc.Process.t;  (** init; must exit 0 *)
  b_history : unit -> Oracle.event list;
      (** the recorded POSIX history, valid after the run *)
}

type t = {
  sc_name : string;
  sc_doc : string;
  sc_build : unit -> built;
}

val all : t list

val find : string -> t
(** @raise Not_found on an unknown scenario name. *)

(** {1 Seeded protocol mutations}

    The client's seeded mutation switches (DESIGN.md §1f), declared
    once here behind stable names so the CLI and the tests can ask for
    them by string. *)

val mutations : (string * bool ref) list
(** Each mutation's name and switch: ["skip_open_inval"],
    ["skip_writeback"] and ["drop_inval"]. *)

val with_mutation : string option -> (unit -> 'a) -> 'a
(** [with_mutation (Some name) f] runs [f] with the named protocol
    mutation switched on, restoring it after; [None] runs [f] plainly.
    @raise Invalid_argument on an unknown mutation name. *)
