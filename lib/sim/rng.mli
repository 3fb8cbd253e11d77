(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the simulation flows through explicitly-seeded [Rng.t]
    values so every experiment is reproducible bit-for-bit. *)

type t

val create : seed:int64 -> t

(** [split t] derives an independent generator; the parent advances. *)
val split : t -> t

(** [next t] returns the next raw 64-bit value. *)
val next : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)].
    Raises [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

(** [float t] returns a uniform float in [\[0, 1)]. *)
val float : t -> float

(** [pick t arr] returns a uniformly-chosen element of [arr].
    Raises [Invalid_argument] on an empty array. *)
val pick : t -> 'a array -> 'a
