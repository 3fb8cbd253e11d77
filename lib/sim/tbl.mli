(** Hash tables with a typed key: equality is the key's own, so no lookup
    falls back on the polymorphic [compare_val], but the hash is always
    the polymorphic table's, [Hashtbl.hash] ([caml_hash], seed 0; the same
    as [Int.hash] and [String.hash]).

    [Hashtbl.Make] shares the polymorphic table's bucket layout and resize
    policy, so with the same hash every bucket — and every [fold] and
    [iter] order — is the polymorphic table's. Simulated behaviour can
    depend on that order (a server's readdir lists a shard in fold order;
    invalidations go out in a tracking table's iter order), which is why
    the hash is fixed here rather than chosen per table. *)

module Make (K : sig
  type t

  val equal : t -> t -> bool
end) : Hashtbl.S with type key = K.t

module Int : Hashtbl.S with type key = int

module Str : Hashtbl.S with type key = string
