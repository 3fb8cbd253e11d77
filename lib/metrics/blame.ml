(* Tail-latency blame reports (PR 9).

   Consumes the trace's tail-retained span trees (Trace.retained): for
   each latency class, look at the retained operations at or above the
   class p99 and say what made them slow — the dominant cycle bucket,
   the dominant server (by blocked-wait cycles granted, falling back to
   admission counts), and the queue depth their first RPC met at
   admission. Pure arithmetic; surfaced by `hare_cli run --blame`
   and bench --json. *)

module Trace = Hare_trace.Trace
module Latency = Hare_stats.Latency

type t = {
  b_class : string;
  b_n : int;  (* retained tail ops examined *)
  b_p99 : int64;  (* class p99 over the full root-span log *)
  b_bucket : string;  (* dominant bucket across the examined ops *)
  b_bucket_share : float;  (* its share of their total cycles *)
  b_srv : int;  (* dominant server, -1 = no RPC ever sent *)
  b_srv_share : float;  (* its share of attributed server cycles *)
  b_qdepth_mean : float;  (* mean queue depth at admission *)
  b_qdepth_max : int;
  b_worst_op : string;
  b_worst_dur : int;
}

(* The critical path through one retained span tree: its bucket
   decomposition, largest first, zero buckets dropped. The bucket vector
   sums to the op's elapsed cycles exactly (Trace charges the remainder
   to Queue at close), so this ordering is the exact answer to "where
   did this slow request's time go". *)
let critical_path (r : Trace.retained) =
  List.mapi (fun i name -> (name, r.Trace.rt_buckets.(i))) Trace.bucket_names
  |> List.filter (fun (_, cy) -> cy > 0)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let of_trace tr =
  let retained = Trace.retained tr in
  let spans = Trace.root_spans tr in
  List.filter_map
    (fun cls ->
      let durs =
        List.filter_map
          (fun (op, _, dur) ->
            if Latency.class_of_op op = Some cls then Some dur else None)
          spans
      in
      let dist = Latency.of_durations durs in
      let mine =
        List.filter (fun r -> r.Trace.rt_cls = cls) retained
      in
      if Latency.is_empty dist || mine = [] then None
      else begin
        let p99 = dist.Latency.p99 in
        (* The ops to blame: retained ops at/above the class p99. When
           retention is generous relative to the op count the whole
           store can sit below p99 — blame the slowest retained ops
           anyway rather than reporting nothing. *)
        let tail =
          match
            List.filter (fun r -> Int64.of_int r.Trace.rt_dur >= p99) mine
          with
          | [] -> mine
          | l -> l
        in
        let buckets = Array.make Trace.nbuckets 0 in
        let srv_cycles = Hashtbl.create 8 in
        let admissions = Hashtbl.create 8 in
        let qd_sum = ref 0 and qd_n = ref 0 and qd_max = ref 0 in
        List.iter
          (fun r ->
            Array.iteri
              (fun i cy -> buckets.(i) <- buckets.(i) + cy)
              r.Trace.rt_buckets;
            List.iter
              (fun (srv, cy) ->
                Hashtbl.replace srv_cycles srv
                  (cy
                  + Option.value ~default:0 (Hashtbl.find_opt srv_cycles srv)))
              r.Trace.rt_children;
            if r.Trace.rt_srv >= 0 then
              Hashtbl.replace admissions r.Trace.rt_srv
                (1
                + Option.value ~default:0
                    (Hashtbl.find_opt admissions r.Trace.rt_srv));
            if r.Trace.rt_qdepth >= 0 then begin
              qd_sum := !qd_sum + r.Trace.rt_qdepth;
              incr qd_n;
              if r.Trace.rt_qdepth > !qd_max then qd_max := r.Trace.rt_qdepth
            end)
          tail;
        let btotal = Array.fold_left ( + ) 0 buckets in
        let bi = ref 0 in
        Array.iteri (fun i cy -> if cy > buckets.(!bi) then bi := i) buckets;
        (* Dominant server: prefer exact blocked-wait attribution; fall
           back to admission counts when no grant was ever recorded
           (e.g. every reply landed while the client computed). *)
        let table =
          if Hashtbl.length srv_cycles > 0 then srv_cycles else admissions
        in
        let srv, srv_cy, srv_total =
          Hashtbl.fold
            (fun s cy (bs, bcy, tot) ->
              if cy > bcy || (cy = bcy && s < bs) then (s, cy, tot + cy)
              else (bs, bcy, tot + cy))
            table (-1, 0, 0)
        in
        let worst =
          List.fold_left
            (fun (wop, wdur) r ->
              if r.Trace.rt_dur > wdur then (r.Trace.rt_op, r.Trace.rt_dur)
              else (wop, wdur))
            ("", -1) tail
        in
        Some
          {
            b_class = cls;
            b_n = List.length tail;
            b_p99 = p99;
            b_bucket = List.nth Trace.bucket_names !bi;
            b_bucket_share =
              (if btotal > 0 then
                 float_of_int buckets.(!bi) /. float_of_int btotal
               else 0.0);
            b_srv = srv;
            b_srv_share =
              (if srv_total > 0 then
                 float_of_int srv_cy /. float_of_int srv_total
               else 0.0);
            b_qdepth_mean =
              (if !qd_n > 0 then float_of_int !qd_sum /. float_of_int !qd_n
               else -1.0);
            b_qdepth_max = (if !qd_n > 0 then !qd_max else -1);
            b_worst_op = fst worst;
            b_worst_dur = snd worst;
          }
      end)
    Latency.class_names
