(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation (§5) from the simulator, then runs one Bechamel
   micro-benchmark per figure measuring the wall-clock cost of the
   simulated experiment underlying it.

   Usage:
     dune exec bench/main.exe              # everything, paper-scale shapes
     dune exec bench/main.exe -- --quick   # small machines (8 cores)
     dune exec bench/main.exe -- --figures-only | --bechamel-only
     dune exec bench/main.exe -- --json [--quick]   # write BENCH_PR2.json
*)

module Figures = Hare_experiments.Figures
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module Config = Hare_config.Config
module Metrics = Hare_metrics.Metrics
module Knee = Hare_metrics.Knee
module Blame = Hare_metrics.Blame
module HD = Driver.Make (World.Hare_w)
module LD = Driver.Make (World.Linux_w)

let bench name = Hare_workloads.All.find name

let hare_run ?placement ?nprocs ~ncores name =
  let config =
    match placement with
    | Some p -> { (Driver.default_config ~ncores) with Config.placement = p }
    | None -> Driver.default_config ~ncores
  in
  fun () -> ignore (HD.run ~config ?nprocs (bench name))

(* One Bechamel test per figure: each run executes the simulated
   experiment that figure is built from (on a small machine, so a single
   sample stays around a millisecond of wall-clock). *)
let bechamel_tests () =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "fig4/sloc" (fun () ->
        match Hare_stats.Sloc.repo_root () with
        | Some root -> ignore (Hare_stats.Sloc.count_tree (Filename.concat root "lib/msg"))
        | None -> ());
    t "fig5/opmix-creates" (hare_run ~ncores:2 "creates");
    t "fig6/scaling-step" (hare_run ~ncores:4 "creates");
    t "fig7/split-config" (hare_run ~placement:(Config.Split 2) ~ncores:4 "creates");
    t "fig8/unfs-baseline" (fun () ->
        let config = World.unfs_config (Driver.default_config ~ncores:2) in
        ignore (HD.run ~config ~nprocs:1 (bench "creates")));
    t "fig8/linux-baseline" (fun () ->
        ignore (LD.run ~config:(Driver.default_config ~ncores:1) ~nprocs:1 (bench "creates")));
    t "fig10/dist-ablation" (fun () ->
        let config =
          { (Driver.default_config ~ncores:4) with Config.dir_distribution = false }
        in
        ignore (HD.run ~config (bench "creates")));
    t "fig11/bcast-ablation" (fun () ->
        let config =
          { (Driver.default_config ~ncores:4) with Config.dir_broadcast = false }
        in
        ignore (HD.run ~config (bench "pfind dense")));
    t "fig12/direct-ablation" (fun () ->
        let config =
          { (Driver.default_config ~ncores:4) with Config.direct_access = false }
        in
        ignore (HD.run ~config (bench "writes")));
    t "fig13/dcache-ablation" (fun () ->
        let config =
          { (Driver.default_config ~ncores:4) with Config.dir_cache = false }
        in
        ignore (HD.run ~config (bench "renames")));
    t "fig14/affinity-ablation" (fun () ->
        let config =
          { (Driver.default_config ~ncores:4) with Config.creation_affinity = false }
        in
        ignore (HD.run ~config (bench "punzip")));
    t "fig15/linux-parallel" (fun () ->
        ignore (LD.run ~config:(Driver.default_config ~ncores:4) (bench "creates")));
    t "micro/rename-latency" (hare_run ~ncores:1 ~nprocs:1 "renames");
  ]

let run_bechamel () =
  let open Bechamel in
  print_endline "\n================ Bechamel micro-benchmarks ================\n";
  print_endline "(wall-clock cost of the simulated experiment behind each figure)\n";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let tests = bechamel_tests () in
  let results =
    List.map
      (fun test ->
        let tbl = Benchmark.all cfg instances test in
        let ols =
          Analyze.all
            (Analyze.ols ~r_square:false ~bootstrap:0
               ~predictors:[| Measure.run |])
            Toolkit.Instance.monotonic_clock tbl
        in
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) ols [])
      (List.map (fun t -> Bechamel.Test.make_grouped ~name:"" [ t ]) tests)
    |> List.concat
  in
  let rows =
    results
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (name, ols) ->
           let est =
             match Analyze.OLS.estimates ols with
             | Some (e :: _) -> Printf.sprintf "%.3f ms/run" (e /. 1e6)
             | _ -> "n/a"
           in
           [ name; est ])
  in
  Hare_stats.Table.print ~headers:[ "experiment"; "wall-clock" ] rows

(* ---------- --json: machine-readable benchmark results ----------------- *)

(* One measured configuration of one figure workload. The "/baseline"
   vs "/pipelined" pairs at 8 cores are the PR's ablation: identical
   machine, knobs at 1/1/1 vs 8/8/8. Each case builds its workload
   instance per run, with the overload counters when it has them. *)
let json_cases quick =
  let plain wname () = (bench wname, None) in
  let case ?(window = 1) ?(batch = 1) ?(extent = 1) name wname ncores =
    let config =
      {
        (Driver.default_config ~ncores) with
        Config.rpc_window = window;
        batch_max = batch;
        alloc_extent = extent;
        (* Tracing is zero-perturbation: the cycle counts below are
           identical with it off, and it buys the per-opcode profile.
           Profile-only (no event ring): these rows never export the
           event stream, and ring recording roughly halves wall-clock
           simulation throughput. *)
        trace_enabled = true;
        trace_cap = 0;
      }
    in
    (name, wname, ncores, None, config, plain wname)
  in
  let figure_cases =
    if quick then
      [
        case "creates@2" "creates" 2;
        case "creates@4" "creates" 4;
        case "writes@4" "writes" 4;
        case "renames@2" "renames" 2;
      ]
    else
      [
        case "creates@2" "creates" 2;
        case "creates@8" "creates" 8;
        case "writes@8" "writes" 8;
        case "renames@2" "renames" 2;
        case "punzip@4" "punzip" 4;
      ]
  in
  (* Overload-control soak (PR 6): open-loop arrivals past saturation of
     a single dedicated server core, every control-plane knob on. The
     row's p99_cycles regression-gates graceful degradation. *)
  let overload_case ?placement name ncores =
    let module O = Hare_workloads.Overload in
    let p = O.preset (Driver.default_config ~ncores) in
    let config =
      {
        p.O.config with
        Config.placement =
          Option.value placement ~default:p.O.config.Config.placement;
        trace_enabled = true;
        (* PR 9: sample the control-plane gauges on a 20k-cycle grid
           and retain the 32 slowest span trees per class, so this row
           also exports a timeseries and a blame report. Both are
           host-side only — the gated cycle counts are unchanged. *)
        trace_retain = 32;
        metrics_interval = 20_000;
      }
    in
    let instance () =
      let spec, c = O.make ~period:p.O.period () in
      (spec, Some c)
    in
    (name, "overload", ncores, Some p.O.workers, config, instance)
  in
  (* Saturation-knee sweep (PR 9): the open-loop overload workload at
     each machine size, one file server per 8 cores, the metrics
     sampler and tail retention on. Each row's time series yields the
     knee — the first window whose p99 latency leaves the flat regime —
     reported per machine size as "knee_cycles". *)
  let knee_case ncores =
    overload_case
      ~placement:(Config.Split (max 1 (ncores / 8)))
      (Printf.sprintf "overload@%d/knee" ncores)
      ncores
  in
  let knee_cases =
    if quick then [ knee_case 64 ]
    else List.map knee_case [ 64; 128; 256; 512 ]
  in
  (* Engine-scalability sweep (PR 7): machines of 64..512 cores, one
     file server per 8 cores (placement scaling with Config.nservers).
     Untraced — these rows measure raw event-loop throughput
     (sim_ops_per_sec / sim_events_per_sec / peak_live_fibers); the
     simulated-cycle fields regression-gate the usual way. *)
  let scale_case wname ncores =
    let config =
      {
        (Driver.default_config ~ncores) with
        Config.placement = Config.Split (ncores / 8);
      }
    in
    ( Printf.sprintf "%s@%d/scale" wname ncores,
      wname,
      ncores,
      None,
      config,
      plain wname )
  in
  let scale_cases =
    if quick then [ scale_case "creates" 64 ]
    else
      List.concat_map
        (fun w -> List.map (scale_case w) [ 64; 128; 256; 512 ])
        [ "creates"; "writes"; "renames" ]
  in
  (* Consistent-hash sharding sweep (PR 8): Sharded placement at 512
     cores, doubling the ring's server count — creates/renames
     throughput should improve monotonically while the per-server load
     stays balanced (each row's "imbalance" is regression-gated). *)
  let sharded_case wname ncores nsrv =
    let config =
      {
        (Driver.default_config ~ncores) with
        Config.placement = Config.Sharded { servers = nsrv; vnodes = 32 };
      }
    in
    ( Printf.sprintf "%s@%d/sharded%d" wname ncores nsrv,
      wname,
      ncores,
      None,
      config,
      plain wname )
  in
  let sharded_cases =
    if quick then [ sharded_case "creates" 64 8 ]
    else
      List.concat_map
        (fun w -> List.map (sharded_case w 512) [ 8; 16; 32 ])
        [ "creates"; "renames" ]
  in
  figure_cases
  @ [
      case "creates@8/baseline" "creates" 8;
      case ~window:8 ~batch:8 ~extent:8 "creates@8/pipelined" "creates" 8;
      case "writes@8/baseline" "writes" 8;
      case ~window:8 ~batch:8 ~extent:8 "writes@8/pipelined" "writes" 8;
      overload_case "overload@8/open" 8;
    ]
  @ scale_cases @ sharded_cases @ knee_cases

let run_json ~quick ~out () =
  let cases = json_cases quick in
  let rows =
    List.map
      (fun (name, wname, ncores, nprocs, config, instance) ->
        let spec, counters = instance () in
        let t0 = Unix.gettimeofday () in
        let r = HD.run ~config ?nprocs spec in
        let wall = Unix.gettimeofday () -. t0 in
        let cycles =
          r.Driver.elapsed
          *. float_of_int config.Config.costs.Hare_config.Costs.cycles_per_us
          *. 1e6
        in
        Printf.printf "%-22s %12.0f cycles  %6.2fs wall\n%!" name cycles wall;
        (name, wname, ncores, config, r, counters, cycles, wall))
      cases
  in
  (* The ablation summary the acceptance criterion asks for. *)
  let find n =
    List.find_map
      (fun (name, _, _, _, _, _, cy, _) -> if name = n then Some cy else None)
      rows
  in
  List.iter
    (fun w ->
      match (find (w ^ "@8/baseline"), find (w ^ "@8/pipelined")) with
      | Some b, Some p ->
          Printf.printf "%s@8: 8/8/8 knobs save %.1f%% simulated cycles\n" w
            (100. *. (b -. p) /. b)
      | _ -> ())
    [ "creates"; "writes" ];
  (* Sharded scaling summary: cycles must fall as the ring doubles. *)
  List.iter
    (fun w ->
      let cy n = find (Printf.sprintf "%s@512/sharded%d" w n) in
      match (cy 8, cy 16, cy 32) with
      | Some a, Some b, Some c ->
          Printf.printf
            "%s@512 sharded 8->16->32 servers: %.0f -> %.0f -> %.0f cycles%s\n"
            w a b c
            (if b < a && c < b then "  (monotone)" else "  (NOT monotone)")
      | _ -> ())
    [ "creates"; "renames" ];
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"hare-bench-pr2/1\",\n";
  add "  \"quick\": %b,\n" quick;
  add "  \"workloads\": [\n";
  List.iteri
    (fun i (name, wname, ncores, config, (r : Driver.result), counters, cycles, wall) ->
      add "    {\n";
      add "      \"name\": \"%s\",\n" name;
      add "      \"workload\": \"%s\",\n" wname;
      add "      \"ncores\": %d,\n" ncores;
      add "      \"config\": { \"rpc_window\": %d, \"batch_max\": %d, \"alloc_extent\": %d, \"cycles_per_us\": %d },\n"
        config.Config.rpc_window config.Config.batch_max
        config.Config.alloc_extent
        config.Config.costs.Hare_config.Costs.cycles_per_us;
      add "      \"ops\": %d,\n" r.Driver.ops;
      add "      \"simulated_cycles\": %.0f,\n" cycles;
      (* Worst per-class p99 of the timed region: the graceful-degradation
         gate. Additive key — older baselines simply do not compare it. *)
      let p99 =
        List.fold_left
          (fun acc (_, d) -> max acc d.Hare_stats.Latency.p99)
          0L r.Driver.latencies
      in
      add "      \"p99_cycles\": %Ld,\n" p99;
      (if r.Driver.latencies <> [] then begin
         add "      \"latency\": { ";
         List.iteri
           (fun j (cls, (d : Hare_stats.Latency.dist)) ->
             add
               "%s\"%s\": { \"n\": %d, \"p50\": %Ld, \"p95\": %Ld, \"p99\": \
                %Ld, \"max\": %Ld }"
               (if j > 0 then ", " else "")
               cls d.Hare_stats.Latency.n d.Hare_stats.Latency.p50
               d.Hare_stats.Latency.p95 d.Hare_stats.Latency.p99
               d.Hare_stats.Latency.lmax)
           r.Driver.latencies;
         add " },\n"
       end);
      (match counters with
      | None -> ()
      | Some (c : Hare_workloads.Overload.counters) ->
          let module R = Hare_stats.Robust in
          let rb = R.get r.Driver.robust in
          add
            "      \"overload\": { \"sent\": %d, \"ok\": %d, \"shed\": %d, \
             \"fast_fail\": %d, \"skipped\": %d, \"retries\": %d, \
             \"giveups\": %d, \"shed_load\": %d, \"shed_expired\": %d, \
             \"flow_blocks\": %d, \"budget_denied\": %d, \"breaker_opens\": \
             %d, \"breaker_half_opens\": %d, \"breaker_closes\": %d },\n"
            c.sent c.ok c.shed c.fast_fail c.skipped
            (rb R.retries) (rb R.giveups) (rb R.shed_load) (rb R.shed_expired)
            (rb R.flow_blocks) (rb R.budget_denied) (rb R.breaker_opens)
            (rb R.breaker_half_opens) (rb R.breaker_closes));
      add "      \"simulated_seconds\": %.9f,\n" r.Driver.elapsed;
      add "      \"wall_clock_s\": %.6f,\n" wall;
      (* Host-side engine throughput: how fast the simulator chewed
         through this row (nothing to do with the simulated clock). *)
      let es = r.Driver.engine in
      add "      \"sim_ops_per_sec\": %.0f,\n"
        (if wall > 0.0 then float_of_int r.Driver.ops /. wall else 0.0);
      add "      \"sim_events_per_sec\": %.0f,\n"
        (if wall > 0.0 then
           float_of_int es.World.es_events /. wall
         else 0.0);
      add "      \"engine_events\": %d,\n" es.World.es_events;
      add "      \"peak_live_fibers\": %d,\n" es.World.es_peak_fibers;
      add "      \"spawned_fibers\": %d,\n" es.World.es_spawned;
      (* Per-server load distribution (whole run) and its max/mean
         imbalance — the sharding balance gate. *)
      (if r.Driver.loads <> [] then begin
         add "      \"imbalance\": %.3f,\n" r.Driver.imbalance;
         add "      \"server_loads\": [ ";
         List.iteri
           (fun j (sid, ops, peak) ->
             add "%s{ \"sid\": %d, \"ops\": %d, \"peak_queue\": %d }"
               (if j > 0 then ", " else "")
               sid ops peak)
           r.Driver.loads;
         add " ],\n"
       end);
      (* Time-series telemetry (PR 9): sampling grid, sample count and a
         per-gauge summary. Present only on rows whose config enabled
         the sampler (metrics_interval > 0). *)
      (if r.Driver.gauges <> [] then begin
         add "      \"timeseries\": { \"interval\": %d, \"samples\": %d, \"gauges\": [ "
           r.Driver.metrics_interval r.Driver.metrics_samples;
         (* "gauge", not "name": check.exe attributes gated metrics to
            the most recent "name" field, which must stay the workload
            row's. *)
         List.iteri
           (fun j (g : Metrics.summary) ->
             add
               "%s{ \"gauge\": \"%s\", \"n\": %d, \"min\": %d, \"max\": %d, \
                \"mean\": %.2f, \"last\": %d }"
               (if j > 0 then ", " else "")
               g.Metrics.s_name g.Metrics.s_n g.Metrics.s_min g.Metrics.s_max
               g.Metrics.s_mean g.Metrics.s_last)
           r.Driver.gauges;
         add " ] },\n"
       end);
      (* Saturation knee of the overload rows: the first window whose
         p99 left the flat regime. "knee_cycles" is regression-gated
         (Higher = the machine endures longer before saturating). *)
      (match r.Driver.knee with
      | Some k when wname = "overload" ->
          add "      \"knee_cycles\": %d,\n" k.Knee.k_at;
          add
            "      \"knee\": { \"window\": %d, \"p99_before\": %Ld, \
             \"p99_after\": %Ld, \"windows\": %d },\n"
            k.Knee.k_window k.Knee.k_before k.Knee.k_after k.Knee.k_windows
      | _ -> ());
      (* Per-class tail blame (PR 9): what made the slowest retained ops
         slow. Present only when trace_retain > 0. *)
      (if r.Driver.blame <> [] then begin
         add "      \"blame\": [ ";
         List.iteri
           (fun j (b : Blame.t) ->
             add
               "%s{ \"class\": \"%s\", \"n\": %d, \"p99\": %Ld, \"bucket\": \
                \"%s\", \"bucket_share\": %.3f, \"srv\": %d, \"srv_share\": \
                %.3f, \"qdepth_mean\": %.2f, \"qdepth_max\": %d, \
                \"worst_op\": \"%s\", \"worst_dur\": %d }"
               (if j > 0 then ", " else "")
               b.Blame.b_class b.Blame.b_n b.Blame.b_p99 b.Blame.b_bucket
               b.Blame.b_bucket_share b.Blame.b_srv b.Blame.b_srv_share
               b.Blame.b_qdepth_mean b.Blame.b_qdepth_max b.Blame.b_worst_op
               b.Blame.b_worst_dur)
           r.Driver.blame;
         add " ],\n"
       end);
      (* Per-opcode cycle attribution of the timed region: each row's
         bucket values sum exactly to its total (hare_cli profile shows
         the same breakdown interactively). *)
      add "      \"profile\": [\n";
      let nrows = List.length r.Driver.profile in
      List.iteri
        (fun j (row : Hare_trace.Trace.row) ->
          add "        { \"op\": \"%s\", \"count\": %d, \"cycles\": %Ld"
            row.Hare_trace.Trace.r_op row.Hare_trace.Trace.r_count
            row.Hare_trace.Trace.r_total;
          List.iteri
            (fun k bname ->
              add ", \"%s\": %Ld" bname row.Hare_trace.Trace.r_buckets.(k))
            Hare_trace.Trace.bucket_names;
          add " }%s\n" (if j < nrows - 1 then "," else ""))
        r.Driver.profile;
      add "      ]\n";
      add "    }%s\n" (if i < List.length rows - 1 then "," else ""))
    rows;
  add "  ],\n";
  (* Schedule-exploration health (PR 10). Additive top-level object:
     check.exe compares only keys present in the baseline, so older
     baselines simply do not gate it. One exhaustive DPOR enumeration of
     the racy-but-clean scenario plus one seeded-mutation detection run
     prove the model checker still branches, still converges, and still
     catches a broken protocol. *)
  let module R = Hare_explore.Runner in
  let module S = Hare_explore.Scenario in
  let t0 = Unix.gettimeofday () in
  let clean =
    R.explore ~scenario:(S.find "collide") ~strategy:R.Dpor ~budget:500 ()
  in
  let detect =
    R.explore ~scenario:(S.find "handoff") ~mutate:"skip_writeback"
      ~strategy:(R.Pct 7) ~budget:50 ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf
    "explore: collide dpor %d schedule(s)%s, handoff+skip_writeback %s \
     (%.2fs wall)\n"
    clean.R.schedules
    (if clean.R.complete then " (exhaustive)" else "")
    (if detect.R.violations <> [] then "DETECTED" else "MISSED")
    wall;
  add "  \"explore\": {\n";
  add "    \"scenario\": \"collide\",\n";
  add "    \"schedules_explored\": %d,\n" clean.R.schedules;
  add "    \"choice_points\": %d,\n" clean.R.choice_points;
  add "    \"sleep_blocked\": %d,\n" clean.R.sleep_blocked;
  add "    \"exhaustive\": %b,\n" clean.R.complete;
  add "    \"violations\": %d,\n" (List.length clean.R.violations);
  add
    "    \"detection\": { \"scenario\": \"handoff\", \"mutation\": \
     \"skip_writeback\", \"strategy\": \"%s\", \"schedules\": %d, \
     \"violations\": %d }\n"
    (R.strategy_name (R.Pct 7))
    detect.R.schedules
    (List.length detect.R.violations);
  add "  }\n";
  add "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d workloads)\n" out (List.length rows)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let figures_only = List.mem "--figures-only" args in
  let bechamel_only = List.mem "--bechamel-only" args in
  let json = List.mem "--json" args in
  let t0 = Unix.gettimeofday () in
  if json then run_json ~quick ~out:"BENCH_PR2.json" ()
  else begin
    let opts = if quick then Figures.quick else Figures.default in
    if not bechamel_only then Figures.print_all opts;
    if not figures_only then run_bechamel ()
  end;
  Printf.printf "\ntotal wall-clock: %.1fs\n" (Unix.gettimeofday () -. t0)
