(** Counter schemas.

    A schema module declares each of its counters once, as a {!Make.key}
    with its display label, in display order. Every record of that schema
    is then a flat array of counts, and creation, reset, merge, listing
    and comparison are written here once for all schemas. *)

(** What a schema offers its counting sites and reports. *)
module type S = sig
  type key

  type t

  val create : unit -> t
  (** A record with every counter at zero. *)

  val incr : t -> key -> unit

  val add : t -> key -> int -> unit

  val get : t -> key -> int

  val keys : unit -> key list
  (** Every key, buckets included, in declaration order. *)

  val reset : t -> unit
  (** Zero every counter, so a timed region reports only its own
      activity. *)

  val merge : into:t -> t -> unit
  (** [merge ~into src] adds every counter of [src] into [into]; a key
      declared with [~max:true] keeps the larger of the two instead. *)

  val to_list : t -> (string * int) list
  (** Label/value pairs in declaration order; buckets are left out. *)

  val is_zero : t -> bool
  (** Every counter, buckets included, is zero. *)

  val equal : t -> t -> bool
end

(** A fresh schema. Its keys are declared when the schema module is
    initialised; declaring one after the first {!S.create} raises
    [Invalid_argument]. *)
module Make () : sig
  include S with type key = private int

  val key : ?max:bool -> string -> key
  (** Declare the next counter, shown as the given label. *)

  val buckets : int -> key array
  (** Declare [n] unlabelled counters (a histogram's buckets). *)
end
