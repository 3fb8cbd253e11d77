(** Reproduction of every table and figure in the paper's evaluation
    (§5). Each [print_*] regenerates the corresponding artifact as an
    ASCII table; the [*_data] functions return the numbers for tests and
    further processing.

    Absolute values come from the calibrated simulator, so they will not
    match the paper's testbed exactly; the shapes — who wins, by what
    rough factor, where the crossovers are — are the reproduction
    targets (see EXPERIMENTS.md). *)

type opts = {
  big : int;  (** the "40-core" machine size. *)
  cores : int list;  (** Figure 6 core-count sweep (must start at 1). *)
  sweep : int list;  (** Figure 7 candidate server splits. *)
  scale : int;  (** workload scale multiplier. *)
}

val default : opts
(** Paper-scale shape: 40 cores, sweep 1..40. *)

val quick : opts
(** Small sizes for tests and smoke runs: 8 cores. *)

(** {1 Figure 4: SLOC breakdown} *)

val print_fig4 : unit -> unit

val fig4_dirs : string list
(** Every directory the Figure 4 tables count, in table order. *)

val fig4_modules : string -> (string * string list) list
(** The source files of [lib/client] and [lib/server] under a repository
    root, by row of the per-module table: the paper's protocol core
    first, then one row per extension module. *)

(** {1 Figure 5: operation mix per benchmark} *)

val fig5_data : opts -> (string * (string * float) list) list

val print_fig5 : opts -> unit

(** {1 Figure 6: speedup vs. cores (timeshare)} *)

val print_fig6 : opts -> unit

(** {1 Figure 7: split vs. timeshare configurations} *)

val print_fig7 : opts -> unit

(** {1 Figure 8: single-core throughput vs. the baselines} *)

val print_fig8 : opts -> unit

(** {1 Figures 9-14: technique ablations} *)

val print_techniques : opts -> unit
(** Prints Figures 10-14 and the Figure 9 min/avg/median/max summary. *)

(** {1 Figure 15: Hare vs. Linux at [big] cores} *)

val print_fig15 : opts -> unit

(** {1 §5.3.3 microbenchmark: rename latency} *)

val micro_data : opts -> float * float
(** (single-core rename µs, split-core rename µs). *)

val print_micro : opts -> unit

(** {1 Extension experiments (beyond the paper)} *)

val print_extensions : opts -> unit
(** Prints the width sweep and a block-stealing demonstration. *)

val print_all : opts -> unit
