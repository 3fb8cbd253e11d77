(* Pipelining/batching/extent-allocation counters. One instance per
   client and per server; [merge] folds them into a machine-wide
   aggregate. Everything stays at zero with the paper-faithful knobs
   (window 1, batch 1, extent 1), except [batches]/[batched_msgs], which
   then degenerate to one message per batch. *)

include Counters.Make ()

let window_hwm = key ~max:true "window high-water"
let deferred = key "deferred rpcs"
let deferred_errors = key "deferred errors"
let batches = key "server batches"
let batched_msgs = key "batched requests"
let lease_hits = key "extent-lease hits"
let lease_misses = key "extent-lease misses"
let lease_blocks = key "blocks allocated ahead"
let dedup_evicted = key "dedup entries evicted"

(* Batch-size histogram: sizes 1..n-1, with the last bucket collecting
   everything at or above it. *)
let batch_hist = buckets 17

let note_window t depth =
  let hwm = get t window_hwm in
  if depth > hwm then add t window_hwm (depth - hwm)

let note_batch t size =
  incr t batches;
  add t batched_msgs size;
  let last = Array.length batch_hist - 1 in
  incr t batch_hist.(Int.min (Int.max size 0) last)

let report t =
  Table.print_counts ~headers:[ "perf counter"; "value" ] (to_list t);
  let last = Array.length batch_hist - 1 in
  let sizes =
    List.filter_map
      (fun size ->
        match get t batch_hist.(size) with
        | 0 -> None
        | n when size = last -> Some (Printf.sprintf ">=%d:%d" size n)
        | n -> Some (Printf.sprintf "%d:%d" size n))
      (List.init last (fun i -> i + 1))
  in
  Printf.printf "batch-size histogram: %s\n"
    (if sizes = [] then "empty" else String.concat ", " sizes);
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  Printf.printf "mean batch %.2f, lease hit rate %.2f\n"
    (ratio (get t batched_msgs) (get t batches))
    (ratio (get t lease_hits) (get t lease_hits + get t lease_misses))
