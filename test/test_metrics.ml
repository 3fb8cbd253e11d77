(* Time-series telemetry PR: the gauge rings must bound memory by
   dropping oldest, knee detection must find the saturation point of a
   synthetic series, tail retention must keep the slowest-k per class,
   and the Latency percentile helpers must be exact (and loud) on tiny
   inputs. *)

open Test_util
module Trace = Hare_trace.Trace
module Latency = Hare_stats.Latency
module Metrics = Hare_metrics.Metrics
module Knee = Hare_metrics.Knee
module Blame = Hare_metrics.Blame

(* The full telemetry surface: sampler, trace sink, tail retention. *)
let metered_config =
  {
    (small_config ~ncores:4 ()) with
    Config.seed = 7L;
    metrics_interval = 5_000;
    trace_enabled = true;
    trace_retain = 16;
  }

(* ---------- sampling and the bounded ring ------------------------------- *)

let test_samples_recorded () =
  let m = run_workload metered_config in
  match Machine.metrics m with
  | None -> Alcotest.fail "no registry"
  | Some mt ->
      Alcotest.(check bool) "gauges registered" true (Metrics.ngauges mt > 0);
      Alcotest.(check bool) "samples taken" true (Metrics.samples mt > 0);
      Alcotest.(check int) "interval as configured" 5_000 (Metrics.interval mt);
      let series = Metrics.series mt in
      Alcotest.(check int) "one series per gauge" (Metrics.ngauges mt)
        (List.length series);
      (* Stamps lie on the sampling grid and increase strictly. *)
      List.iter
        (fun (name, points) ->
          Alcotest.(check bool) (name ^ ": nonempty") true (points <> []);
          ignore
            (List.fold_left
               (fun prev (ts, _) ->
                 Alcotest.(check int) (name ^ ": on grid") 0 (ts mod 5_000);
                 Alcotest.(check bool) (name ^ ": increasing") true (ts > prev);
                 ts)
               (-1) points))
        series;
      (* Summaries agree with the raw points. *)
      List.iter2
        (fun (name, points) (s : Metrics.summary) ->
          Alcotest.(check string) "summary order matches series" name
            s.Metrics.s_name;
          Alcotest.(check int) (name ^ ": n") (List.length points)
            s.Metrics.s_n;
          let vs = List.map snd points in
          Alcotest.(check int) (name ^ ": min")
            (List.fold_left min max_int vs)
            s.Metrics.s_min;
          Alcotest.(check int) (name ^ ": max")
            (List.fold_left max min_int vs)
            s.Metrics.s_max;
          Alcotest.(check int) (name ^ ": last")
            (List.nth vs (List.length vs - 1))
            s.Metrics.s_last)
        series (Metrics.summaries mt)

let test_ring_drops_oldest () =
  let mt = Metrics.create ~cap:4 ~interval:10 () in
  let v = ref 0 in
  Metrics.register mt ~name:"g" (fun () -> !v);
  for i = 1 to 10 do
    v := i;
    Metrics.sample mt ~now:(Int64.of_int (i * 10))
  done;
  Alcotest.(check int) "all samples counted" 10 (Metrics.samples mt);
  Alcotest.(check int) "overflow counted" 6 (Metrics.dropped mt);
  match Metrics.series mt with
  | [ ("g", points) ] ->
      Alcotest.(check (list (pair int int)))
        "ring keeps the newest cap samples"
        [ (70, 7); (80, 8); (90, 9); (100, 10) ]
        points
  | _ -> Alcotest.fail "expected exactly one series"

let test_register_after_sample_rejected () =
  let mt = Metrics.create ~interval:10 () in
  Metrics.register mt ~name:"g" (fun () -> 0);
  Metrics.sample mt ~now:10L;
  Alcotest.check_raises "late registration rejected"
    (Invalid_argument "Metrics.register: gauges must be registered before sampling")
    (fun () ->
      Metrics.register mt ~name:"h" (fun () -> 0))

(* ---------- knee detection ---------------------------------------------- *)

(* [burst t0 n dur] is n spans of duration [dur] starting in the window
   at [t0]. *)
let burst t0 n dur = List.init n (fun i -> (t0 + i, dur))

let test_knee_detects_rise () =
  (* Five flat windows at p99=100, then the series jumps to 1000. *)
  let spans =
    List.concat_map (fun w -> burst (w * 100) 10 100) [ 0; 1; 2; 3; 4 ]
    @ burst 500 10 1000 @ burst 600 10 1000
  in
  match Knee.detect ~window:100 spans with
  | None -> Alcotest.fail "knee not found"
  | Some k ->
      Alcotest.(check int) "knee at first rising window" 500 k.Knee.k_at;
      Alcotest.(check int) "window width echoed" 100 k.Knee.k_window;
      Alcotest.(check int64) "flat p99" 100L k.Knee.k_before;
      Alcotest.(check int64) "risen p99" 1000L k.Knee.k_after

let test_knee_gradual_climb () =
  (* Each window is only 1.3x its neighbour — under the 1.5 factor — but
     the climb leaves the flat floor far behind; judging against the
     floor (not the previous window) must still find the knee. *)
  let spans =
    List.concat_map (fun w -> burst (w * 100) 10 100) [ 0; 1; 2 ]
    @ List.concat
        (List.mapi
           (fun i w ->
             burst (w * 100) 10
               (int_of_float (100. *. (1.3 ** float_of_int (i + 1)))))
           [ 3; 4; 5; 6 ])
  in
  match Knee.detect ~window:100 spans with
  | None -> Alcotest.fail "gradual climb missed"
  | Some k ->
      (* floor 100; 130 is under 1.5x, 169 crosses it *)
      Alcotest.(check int) "knee at the window crossing the floor factor" 400
        k.Knee.k_at;
      Alcotest.(check int64) "baseline is the flat floor" 100L k.Knee.k_before

let test_knee_flat_none () =
  let spans = List.concat_map (fun w -> burst (w * 100) 10 100) [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "flat series has no knee" true
    (Knee.detect ~window:100 spans = None)

let test_knee_skips_sparse_windows () =
  (* The rising window has only 3 completions — below min_samples — so
     it must neither trigger nor reset the reference p99. *)
  let spans =
    List.concat_map (fun w -> burst (w * 100) 10 100) [ 0; 1; 2 ]
    @ burst 300 3 100_000
    @ burst 400 10 100
  in
  Alcotest.(check bool) "sparse spike ignored" true
    (Knee.detect ~window:100 spans = None)

(* ---------- tail retention and blame ------------------------------------ *)

let retained_config () =
  {
    (small_config ~ncores:4 ()) with
    Config.trace_enabled = true;
    trace_retain = 4;
    seed = 7L;
  }

let test_retention_keeps_k_slowest () =
  let m = run_workload ~wname:"writes" (retained_config ()) in
  match Machine.trace m with
  | None -> Alcotest.fail "no sink"
  | Some tr ->
      let kept = Trace.retained tr in
      Alcotest.(check bool) "something retained" true (kept <> []);
      (* slowest-first ordering, and at most k per class *)
      ignore
        (List.fold_left
           (fun prev (r : Trace.retained) ->
             Alcotest.(check bool) "sorted slowest first" true
               (r.Trace.rt_dur <= prev);
             r.Trace.rt_dur)
           max_int kept);
      let per_class = Hashtbl.create 4 in
      List.iter
        (fun (r : Trace.retained) ->
          Hashtbl.replace per_class r.Trace.rt_cls
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_class r.Trace.rt_cls)))
        kept;
      Hashtbl.iter
        (fun cls n ->
          Alcotest.(check bool) (cls ^ ": bounded by k") true (n <= 4))
        per_class;
      (* every retained tree attributes exactly *)
      List.iter
        (fun (r : Trace.retained) ->
          Alcotest.(check int)
            (r.Trace.rt_op ^ ": buckets sum to duration")
            r.Trace.rt_dur
            (Array.fold_left ( + ) 0 r.Trace.rt_buckets))
        kept

let test_blame_reports () =
  let m = run_workload ~wname:"writes" (retained_config ()) in
  match Machine.trace m with
  | None -> Alcotest.fail "no sink"
  | Some tr ->
      let reports = Blame.of_trace tr in
      Alcotest.(check bool) "blame produced" true (reports <> []);
      List.iter
        (fun (b : Blame.t) ->
          Alcotest.(check bool) (b.Blame.b_class ^ ": examined ops") true
            (b.Blame.b_n > 0);
          Alcotest.(check bool) (b.Blame.b_class ^ ": share in (0,1]") true
            (b.Blame.b_bucket_share > 0. && b.Blame.b_bucket_share <= 1.);
          Alcotest.(check bool) (b.Blame.b_class ^ ": worst op nonempty") true
            (b.Blame.b_worst_op <> ""))
        reports;
      (* the critical path of any retained op sums exactly *)
      List.iter
        (fun (r : Trace.retained) ->
          Alcotest.(check int)
            (r.Trace.rt_op ^ ": critical path sums to duration")
            r.Trace.rt_dur
            (List.fold_left (fun acc (_, cy) -> acc + cy) 0
               (Blame.critical_path r)))
        (Trace.retained tr)

(* ---------- Latency on tiny inputs (satellite) -------------------------- *)

let test_latency_empty () =
  let d = Latency.of_durations [] in
  Alcotest.(check bool) "empty is empty" true (Latency.is_empty d);
  Alcotest.(check int) "n = 0" 0 d.Latency.n;
  Alcotest.(check bool) "Latency.empty is empty" true
    (Latency.is_empty Latency.empty);
  (* percentile never invents a 0 from nothing *)
  (match Latency.percentile [||] 99. with
  | _ -> Alcotest.fail "percentile of [||] should raise"
  | exception Invalid_argument _ -> ());
  match Latency.percentile [| 1L |] 0. with
  | _ -> Alcotest.fail "percentile at q=0 should raise"
  | exception Invalid_argument _ -> ()

let test_latency_one () =
  let d = Latency.of_durations [ 42L ] in
  Alcotest.(check bool) "not empty" false (Latency.is_empty d);
  Alcotest.(check int) "n = 1" 1 d.Latency.n;
  Alcotest.(check int64) "p50 is the sample" 42L d.Latency.p50;
  Alcotest.(check int64) "p95 is the sample" 42L d.Latency.p95;
  Alcotest.(check int64) "p99 is the sample" 42L d.Latency.p99;
  Alcotest.(check int64) "max is the sample" 42L d.Latency.lmax

let test_latency_two () =
  let d = Latency.of_durations [ 9L; 5L ] in
  Alcotest.(check int) "n = 2" 2 d.Latency.n;
  Alcotest.(check int64) "p50 is the smaller (nearest rank)" 5L d.Latency.p50;
  Alcotest.(check int64) "p95 is the larger" 9L d.Latency.p95;
  Alcotest.(check int64) "p99 is the larger" 9L d.Latency.p99;
  Alcotest.(check int64) "max is the larger" 9L d.Latency.lmax

let test_latency_hundred () =
  let d =
    Latency.of_durations (List.init 100 (fun i -> Int64.of_int (100 - i)))
  in
  Alcotest.(check int) "n = 100" 100 d.Latency.n;
  Alcotest.(check int64) "p50 = 50" 50L d.Latency.p50;
  Alcotest.(check int64) "p95 = 95" 95L d.Latency.p95;
  Alcotest.(check int64) "p99 = 99" 99L d.Latency.p99;
  Alcotest.(check int64) "max = 100" 100L d.Latency.lmax

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "metrics.sampling",
      [
        tc "gauges sampled on the grid" `Quick test_samples_recorded;
        tc "ring overwrites oldest, counts" `Quick test_ring_drops_oldest;
        tc "late registration rejected" `Quick
          test_register_after_sample_rejected;
      ] );
    ( "metrics.knee",
      [
        tc "finds the saturation knee" `Quick test_knee_detects_rise;
        tc "catches a gradual climb via the floor" `Quick
          test_knee_gradual_climb;
        tc "flat series has none" `Quick test_knee_flat_none;
        tc "sparse windows skipped" `Quick test_knee_skips_sparse_windows;
      ] );
    ( "metrics.tail",
      [
        tc "retention keeps slowest-k per class" `Quick
          test_retention_keeps_k_slowest;
        tc "blame reports and exact critical paths" `Quick test_blame_reports;
      ] );
    ( "metrics.latency",
      [
        tc "zero samples: empty, loud percentiles" `Quick test_latency_empty;
        tc "one sample pins every percentile" `Quick test_latency_one;
        tc "two samples split by nearest rank" `Quick test_latency_two;
        tc "hundred samples: exact ranks" `Quick test_latency_hundred;
      ] );
  ]
