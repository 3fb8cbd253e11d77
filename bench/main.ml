(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation (§5) from the simulator, then runs one Bechamel
   micro-benchmark per figure measuring the wall-clock cost of the
   simulated experiment underlying it.

   Usage:
     dune exec bench/main.exe              # everything, paper-scale shapes
     dune exec bench/main.exe -- --quick   # small machines (8 cores)
     dune exec bench/main.exe -- --figures-only | --bechamel-only
     dune exec bench/main.exe -- --json [--quick]   # write BENCH_PR2.json

   --json builds each row as a Hare_stats.Json value and prints it with
   that module's one printer; bench/check.exe parses the file back,
   checks its structure and gates it against bench/baseline_quick.json.
*)

module Figures = Hare_experiments.Figures
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module Config = Hare_config.Config
module Metrics = Hare_metrics.Metrics
module HD = Driver.Make (World.Hare_w)
module LD = Driver.Make (World.Linux_w)

let bench name = Hare_workloads.All.find name

let hare_run ?nprocs ~ncores ~tweak name () =
  let config = tweak (Driver.default_config ~ncores) in
  ignore (HD.run ~config ?nprocs (bench name))

(* One Bechamel test per figure: each run executes the simulated
   experiment that figure is built from (on a small machine, so a single
   sample stays around a millisecond of wall-clock). *)
let bechamel_tests () =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  (* Figures 10-14: one technique switched off each. *)
  let ablation label =
    hare_run ~ncores:4 ~tweak:(List.assoc label Figures.techniques)
  in
  [
    t "fig4/sloc" (fun () ->
        match Hare_stats.Sloc.repo_root () with
        | Some root -> ignore (Hare_stats.Sloc.count_tree (Filename.concat root "lib/msg"))
        | None -> ());
    t "fig5/opmix-creates" (hare_run ~ncores:2 ~tweak:Fun.id "creates");
    t "fig6/scaling-step" (hare_run ~ncores:4 ~tweak:Fun.id "creates");
    t "fig7/split-config"
      (hare_run ~ncores:4 ~tweak:(fun c -> Config.{ c with placement = Split 2 })
         "creates");
    t "fig8/unfs-baseline"
      (hare_run ~nprocs:1 ~ncores:2 ~tweak:World.unfs_config "creates");
    t "fig8/linux-baseline" (fun () ->
        ignore (LD.run ~config:(Driver.default_config ~ncores:1) ~nprocs:1 (bench "creates")));
    t "fig10/dist-ablation" (ablation "Directory distribution" "creates");
    t "fig11/bcast-ablation" (ablation "Directory broadcast" "pfind dense");
    t "fig12/direct-ablation" (ablation "Direct cache access" "writes");
    t "fig13/dcache-ablation" (ablation "Directory cache" "renames");
    t "fig14/affinity-ablation" (ablation "Creation affinity" "punzip");
    t "fig15/linux-parallel" (fun () ->
        ignore (LD.run ~config:(Driver.default_config ~ncores:4) (bench "creates")));
    t "micro/rename-latency" (hare_run ~ncores:1 ~nprocs:1 ~tweak:Fun.id "renames");
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
  (* An untraced row of [wname] on [placement]. *)
  let placed name wname ncores placement =
    let config = { (Driver.default_config ~ncores) with Config.placement } in
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
    placed (Printf.sprintf "%s@%d/scale" wname ncores) wname ncores
      (Config.Split (ncores / 8))
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
    placed (Printf.sprintf "%s@%d/sharded%d" wname ncores nsrv) wname ncores
      (Config.Sharded { servers = nsrv; vnodes = 32 })
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

(* One row of the --json output. Printed precision is part of the
   schema: cycles and host rates are integers, shares three decimals.
   Each section's encoder sits beside the type it renders. *)
let workload_json
    (name, wname, ncores, config, (r : Driver.result), counters, cycles, wall)
    =
  let open Hare_stats.Json in
  let obj kvs = Object (List.map (fun (k, v) -> (k, Int v)) kvs) in
  let unless_empty l kvs = if l = [] then [] else kvs in
  let per_wall n = decimals 0 (if wall > 0.0 then float_of_int n /. wall else 0.0) in
  (* Worst per-class p99 of the timed region: the graceful-degradation
     gate. Additive key — older baselines simply do not compare it. *)
  let p99 =
    List.fold_left
      (fun acc (_, d) -> max acc d.Hare_stats.Latency.p99)
      0L r.Driver.latencies
  in
  Object
    ([ ("name", String name); ("workload", String wname); ("ncores", Int ncores);
       ( "config",
         Config.(
           obj [ ("rpc_window", config.rpc_window); ("batch_max", config.batch_max);
                 ("alloc_extent", config.alloc_extent);
                 ("cycles_per_us", config.costs.Hare_config.Costs.cycles_per_us) ]) );
       ("ops", Int r.Driver.ops); ("simulated_cycles", decimals 0 cycles);
       ("p99_cycles", Int (Int64.to_int p99)) ]
    @ unless_empty r.Driver.latencies
        [ ( "latency",
            Object
              (List.map
                 (fun (cls, d) -> (cls, Hare_stats.Latency.to_json d))
                 r.Driver.latencies) ) ]
    @ (match counters with
      | Some c -> [ ("overload", Hare_workloads.Overload.to_json c r.Driver.robust) ]
      | None -> [])
    (* Host-side engine throughput: how fast the simulator chewed
       through this row (nothing to do with the simulated clock). *)
    @ [ ("simulated_seconds", decimals 9 r.Driver.elapsed);
        ("wall_clock_s", decimals 6 wall);
        ("sim_ops_per_sec", per_wall r.Driver.ops);
        ("sim_events_per_sec", per_wall r.Driver.engine_events);
        ("engine_events", Int r.Driver.engine_events);
        ("peak_live_fibers", Int r.Driver.peak_fibers);
        ("spawned_fibers", Int r.Driver.spawned_fibers) ]
    (* Per-server load distribution (whole run) and its max/mean
       imbalance — the sharding balance gate. *)
    @ unless_empty r.Driver.loads
        [ ("imbalance", decimals 3 (Driver.imbalance r.Driver.loads));
          ( "server_loads",
            Array
              (List.map
                 (fun (sid, ops, peak) ->
                   obj [ ("sid", sid); ("ops", ops); ("peak_queue", peak) ])
                 r.Driver.loads) ) ]
    (* Time-series telemetry: sampling grid, sample count and a
       per-gauge summary, on rows whose config enabled the sampler. *)
    @ unless_empty r.Driver.gauges
        [ ( "timeseries",
            Object [ ("interval", Int r.Driver.metrics_interval);
                     ("samples", Int r.Driver.metrics_samples);
                     ( "gauges",
                       Array (List.map Metrics.summary_to_json r.Driver.gauges) ) ] ) ]
    (* Saturation knee of the overload rows: the first window whose
       p99 left the flat regime. "knee_cycles" is regression-gated
       (Higher = the machine endures longer before saturating). *)
    @ (match r.Driver.knee with
      | Some k when wname = "overload" ->
          [ ("knee_cycles", Int k.Hare_metrics.Knee.k_at);
            ("knee", Hare_metrics.Knee.to_json k) ]
      | _ -> [])
    (* Per-class tail blame: what made the slowest retained ops
       slow. Present only when trace_retain > 0. *)
    @ unless_empty r.Driver.blame
        [ ("blame", Array (List.map Hare_metrics.Blame.to_json r.Driver.blame)) ]
    (* Per-opcode cycle attribution of the timed region: each row's
       bucket values sum exactly to its total (hare_cli --profile shows
       the same breakdown). *)
    @ [ ("profile", Array (List.map Hare_trace.Trace.row_to_json r.Driver.profile)) ])

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
  let open Hare_stats.Json in
  let explore =
    Object
      [ ("scenario", String "collide"); ("schedules_explored", Int clean.R.schedules);
        ("choice_points", Int clean.R.choice_points);
        ("sleep_blocked", Int clean.R.sleep_blocked);
        ("exhaustive", Bool clean.R.complete);
        ("violations", Int (List.length clean.R.violations));
        ( "detection",
          Object
            [ ("scenario", String "handoff"); ("mutation", String "skip_writeback");
              ("strategy", String (R.strategy_name (R.Pct 7)));
              ("schedules", Int detect.R.schedules);
              ("violations", Int (List.length detect.R.violations)) ] ) ]
  in
  Out_channel.with_open_bin out (fun oc ->
      Out_channel.output_string oc
        (to_string
           (Object
              [ ("schema", String "hare-bench-pr2/1"); ("quick", Bool quick);
                ("workloads", Array (List.map workload_json rows));
                ("explore", explore) ])));
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
