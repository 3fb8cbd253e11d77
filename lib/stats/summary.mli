(** Min/avg/median/max summaries (Figure 9's aggregation). *)

type t = { min : float; avg : float; median : float; max : float }

(** [of_list xs] summarizes a non-empty list.
    Raises [Invalid_argument] on an empty list. *)
val of_list : float list -> t
