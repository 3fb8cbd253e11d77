(** A processor core as a serially-occupied resource.

    Every cycle a simulated entity spends computing is charged against a
    core through {!compute}. A core executes one fiber's work at a time;
    concurrent requests queue in FIFO order, which is how timesharing
    contention (e.g. a file server sharing a core with an application)
    emerges in the model. A context-switch penalty is charged whenever the
    computing fiber differs from the previous one, reproducing the
    scheduling + TLB/L1-pollution cost the paper measures in §5.3.3. *)

type t

val create : Engine.t -> id:int -> socket:int -> ctx_switch:int -> t

val id : t -> int

val engine : t -> Engine.t
(** The simulation engine this core is bound to. *)

val socket : t -> int
(** NUMA socket this core belongs to. *)

(** [compute t cycles] occupies the core for [cycles] (plus a context
    switch penalty if the calling fiber is not the core's previous
    occupant) and returns when the work completes. Must be called from
    within a fiber. *)
val compute : t -> int -> unit


(** Total cycles of work executed on this core (including switch costs). *)
val busy_cycles : t -> int64

(** Number of context switches charged so far. *)
val switches : t -> int
