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
  incr t batch_hist.(min (max size 0) last)

let mean_batch t =
  if get t batches = 0 then 0.0
  else float_of_int (get t batched_msgs) /. float_of_int (get t batches)

let lease_hit_rate t =
  let hits = get t lease_hits in
  let total = hits + get t lease_misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let pp_hist ppf t =
  let last = Array.length batch_hist - 1 in
  let rows =
    List.init last (fun i -> (i + 1, get t batch_hist.(i + 1)))
    |> List.filter (fun (_, n) -> n > 0)
  in
  match rows with
  | [] -> Format.pp_print_string ppf "empty"
  | rows ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        (fun ppf (size, n) ->
          if size = last then Format.fprintf ppf ">=%d:%d" size n
          else Format.fprintf ppf "%d:%d" size n)
        ppf rows

let pp ppf t =
  Format.fprintf ppf
    "@[<v>window high-water: %d@,\
     deferred rpcs: %d (errors %d)@,\
     batches: %d (%d requests, mean %.2f/batch)@,\
     batch histogram: %a@,\
     extent leases: %d hits / %d misses (%.0f%% hit), %d blocks ahead@]"
    (get t window_hwm) (get t deferred) (get t deferred_errors) (get t batches)
    (get t batched_msgs) (mean_batch t) pp_hist t (get t lease_hits)
    (get t lease_misses)
    (100.0 *. lease_hit_rate t)
    (get t lease_blocks)
