(** Plain-text tables, for printing the paper's figures as rows. *)

(** [render ~headers rows] lays out an aligned ASCII table. All rows must
    have [List.length headers] cells. *)
val render : headers:string list -> string list list -> string

val print : headers:string list -> string list list -> unit

(** [print_counts ~headers pairs] prints label/count pairs (a counter
    schema's [to_list]) as a two-column table. *)
val print_counts : headers:string list -> (string * int) list -> unit

(** [fmt_factor x] renders a normalized throughput like the paper's bar
    labels: ["4.12x"]. *)
val fmt_factor : float -> string

(** [fmt_seconds s] renders a runtime: ["42.24s"]. *)
val fmt_seconds : float -> string
