(* Latency percentile summaries over span durations (PR 6).

   Pure arithmetic: the driver walks the trace's root-span log and hands
   in cycle durations; this module sorts them, picks nearest-rank
   percentiles and renders the result as a table or as JSON. *)

type dist = {
  n : int;
  p50 : int64;
  p95 : int64;
  p99 : int64;
  lmax : int64;
}

let empty = { n = 0; p50 = 0L; p95 = 0L; p99 = 0L; lmax = 0L }

let is_empty d = d.n = 0

(* Nearest-rank index into a sorted array of [n] samples: the smallest
   value such that at least q% of samples are <= it, i.e. index
   ceil(n*q/100) - 1. Total for every n >= 1 and 0 < q <= 100 — the
   degenerate small-n cases (PR 9 satellite) are pinned down explicitly:
   n = 1 maps every q to the single sample, and n = 0 is a caller error
   rather than a silent zero that idle classes could not distinguish
   from a genuine zero-cycle latency. *)
let rank n q =
  if n <= 0 then invalid_arg "Latency.rank: no samples";
  if not (q > 0. && q <= 100.) then
    invalid_arg "Latency.rank: percentile must be in (0, 100]";
  let r = int_of_float (ceil (float_of_int n *. q /. 100.)) in
  Int.max 0 (Int.min (n - 1) (r - 1))

let percentile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Latency.percentile: no samples";
  a.(rank n q)

let of_durations ds =
  match ds with
  | [] -> empty
  | _ ->
      let a = Array.of_list ds in
      Array.sort Int64.compare a;
      let n = Array.length a in
      {
        n;
        p50 = percentile a 50.;
        p95 = percentile a 95.;
        p99 = percentile a 99.;
        lmax = a.(n - 1);
      }

(* Syscall op name (a client-side root span) -> overload priority class.
   The classes mirror the server-side shed classes: metadata RPCs are
   never shed, data moves bulk bytes, background is deferrable
   housekeeping. *)
let class_of_op = function
  | "read" | "write" | "lseek" | "fsync" | "ftruncate" -> Some "data"
  | "open" | "close" | "stat" | "fstat" | "mkdir" | "rmdir" | "readdir"
  | "rename" | "dup" | "dup2" | "pipe" | "fork" ->
      Some "meta"
  | "unlink" -> Some "background" | _ -> None

let class_names = [ "meta"; "data"; "background" ]

let print = function
  | [] -> ()
  | dists ->
      Table.print
        ~headers:[ "class"; "n"; "p50"; "p95"; "p99"; "max" ]
        (List.map
           (fun (cls, d) ->
             cls :: string_of_int d.n
             :: List.map Int64.to_string [ d.p50; d.p95; d.p99; d.lmax ])
           dists)

let to_json d =
  let i64 x = Json.Int (Int64.to_int x) in
  Json.Object
    [ ("n", Int d.n); ("p50", i64 d.p50); ("p95", i64 d.p95);
      ("p99", i64 d.p99); ("max", i64 d.lmax) ]
