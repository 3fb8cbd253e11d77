(** Fault plans: pure data describing what should go wrong, and when.

    A plan is parsed from a compact spec string (typically the
    [fault_plan] config field). Grammar — items separated by [';']:

    {v
    drop:<tgt>:<p>            drop each matching message with probability p
    dup:<tgt>:<p>             deliver each matching message twice
    delay:<tgt>:<p>:<max>     delay delivery by 1..max cycles
    crash:<sid>@<at>          crash server sid at cycle <at>, forever
    crash:<sid>@<at>+<dur>    ... and restart it <dur> cycles later
    stall:<sid>@<at>+<dur>    freeze message delivery to sid for <dur>
    v}

    where [<tgt>] is [fs] (every file server) or [fs<k>] (server [k]),
    and probabilities are floats in [0,1]. Example:

    {[ "drop:fs:0.05;dup:fs1:0.02;crash:1@200000+150000" ]} *)

type target = All_servers | Server of int

type action =
  | Drop
  | Duplicate
  | Delay of int  (** maximum extra delivery delay, in cycles *)

type msg_rule = { action : action; target : target; prob : float }

type event_kind =
  | Crash of int64 option  (** restart after this many cycles, if given *)
  | Stall of int64  (** delivery frozen for this many cycles *)

type server_event = { ev_sid : int; ev_at : int64; ev_kind : event_kind }

type t = { rules : msg_rule list; events : server_event list }

val is_empty : t -> bool

val parse : string -> (t, string) result
(** Parse a spec string; the empty (or all-whitespace) string yields
    {!empty}. *)

val parse_exn : string -> t
(** Like {!parse} but raises [Invalid_argument] with the parse error. *)

val to_string : t -> string
(** Canonical spec string; [parse (to_string t)] round-trips. *)
