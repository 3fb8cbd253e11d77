(** Named operation counters (system calls, RPC opcodes).

    Backs the Figure 5 operation-breakdown table and the per-benchmark
    RPC accounting. *)

type t

val create : unit -> t

type id = int
(** A name interned once per process ({!intern}): the same name has the
    same id in every counter. *)

val intern : string -> id

val name : id -> string

val bump : t -> id -> unit
(** Count one more of an interned name: an array slot, no hashing. *)

val incr : ?by:int -> t -> string -> unit
(** Count a name given as a string (interned on the way). *)

val get : t -> string -> int

val total : t -> int

(** [to_list t] returns [(name, count)] pairs, highest count first;
    ties alphabetical. Names counted zero times are not listed. *)
val to_list : t -> (string * int) list

(** [breakdown t] returns [(name, share)] with shares in [0,1], highest
    first. *)
val breakdown : t -> (string * float) list

(** [merge ~into src] adds [src]'s counts into [into]. *)
val merge : into:t -> t -> unit

(** [snapshot t] is an independent copy. *)
val snapshot : t -> t

(** [diff ~since t] is the counts accumulated after [since] was
    snapshotted from the same counter. *)
val diff : since:t -> t -> t

val pp : Format.formatter -> t -> unit
