(* Every paper benchmark must run to completion on every world — the
   reproduction of the paper's "runs unmodified POSIX applications"
   claim — and report sane measurements. *)

module Spec = Hare_workloads.Spec
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module HareD = Driver.Make (World.Hare_w)
module LinuxD = Driver.Make (World.Linux_w)

let config = Driver.default_config ~ncores:4

let check_result (r : Driver.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s elapsed > 0" r.Driver.world r.Driver.bench)
    true
    (r.Driver.elapsed > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s throughput > 0" r.Driver.world r.Driver.bench)
    true
    (r.Driver.throughput > 0.0)

let hare_case (spec : Spec.t) () = check_result (HareD.run ~config spec)

let linux_case (spec : Spec.t) () = check_result (LinuxD.run ~config spec)

let unfs_case () =
  let cfg = World.unfs_config (Driver.default_config ~ncores:2) in
  let r = HareD.run ~config:cfg ~nprocs:1 (Hare_workloads.All.find "creates") in
  check_result r;
  (* loopback messaging must make it much slower than plain hare *)
  let plain =
    HareD.run
      ~config:(Driver.default_config ~ncores:2)
      ~nprocs:1
      (Hare_workloads.All.find "creates")
  in
  Alcotest.(check bool)
    (Printf.sprintf "unfs (%.0f ops/s) slower than hare (%.0f ops/s)"
       r.Driver.throughput plain.Driver.throughput)
    true
    (r.Driver.throughput < plain.Driver.throughput)

let scaling_sanity () =
  (* More cores must not make the trivially-parallel benchmark slower. *)
  let one =
    HareD.run ~config:(Driver.default_config ~ncores:1) ~nprocs:1
      (Hare_workloads.All.find "creates")
  in
  let four =
    HareD.run ~config:(Driver.default_config ~ncores:4) ~nprocs:4
      (Hare_workloads.All.find "creates")
  in
  Alcotest.(check bool)
    (Printf.sprintf "4-core (%.0f) beats 1-core (%.0f)" four.Driver.throughput
       one.Driver.throughput)
    true
    (four.Driver.throughput > one.Driver.throughput)

let dist_off_still_correct () =
  let cfg =
    { (Driver.default_config ~ncores:4) with
      Hare_config.Config.dir_distribution = false;
      dir_broadcast = false;
      direct_access = false;
      dir_cache = false;
      creation_affinity = false
    }
  in
  check_result (HareD.run ~config:cfg (Hare_workloads.All.find "mailbench"))

(* Golden simulated clocks: every workload's timed region, in cycles,
   for the default seed. The engine overhaul (fiber pruning, probe
   slots, flat attribution contexts, [Sleep_cycles]) is host-side only;
   any change to these numbers means a scheduling-order perturbation
   leaked into the simulation, which would silently invalidate every
   figure. Regenerate deliberately (and say why in the commit) with the
   formula below if a simulated-cost change is intended. *)
let golden_clocks =
  [
    ("creates", 4, 1, 1, 1, 6447400L);
    ("writes", 4, 1, 1, 1, 4791250L);
    ("renames", 4, 1, 1, 1, 3045100L);
    ("directories", 4, 1, 1, 1, 6868050L);
    ("rm dense", 4, 1, 1, 1, 15646950L);
    ("rm sparse", 4, 1, 1, 1, 3793800L);
    ("pfind dense", 4, 1, 1, 1, 30209420L);
    ("pfind sparse", 4, 1, 1, 1, 9425410L);
    ("extract", 4, 1, 1, 1, 1931535L);
    ("punzip", 4, 1, 1, 1, 1650172L);
    ("mailbench", 4, 1, 1, 1, 9496882L);
    ("fsstress", 4, 1, 1, 1, 7905119L);
    ("build linux", 4, 1, 1, 1, 142055979L);
    ("overload", 4, 1, 1, 1, 6286924L);
    ("creates", 4, 8, 8, 8, 5476600L);
    ("writes", 4, 8, 8, 8, 3790450L);
    ("creates", 8, 1, 1, 1, 6943200L);
    ("writes", 8, 1, 1, 1, 5880650L);
  ]

let golden_determinism () =
  List.iter
    (fun (name, ncores, window, batch, extent, expect) ->
      let config =
        {
          (Driver.default_config ~ncores) with
          Hare_config.Config.rpc_window = window;
          batch_max = batch;
          alloc_extent = extent;
        }
      in
      let r = HareD.run ~config (Hare_workloads.All.find name) in
      let cycles =
        Int64.of_float
          (r.Driver.elapsed
           *. float_of_int
                config.Hare_config.Config.costs.Hare_config.Costs.cycles_per_us
           *. 1e6
          +. 0.5)
      in
      Alcotest.(check int64)
        (Printf.sprintf "%s @%d cores (window=%d batch=%d extent=%d)" name
           ncores window batch extent)
        expect cycles)
    golden_clocks

(* The exploration hook's zero-perturbation contract (PR 10): with a
   trivial explorer attached (always ordinal 0), every same-cycle tie is
   routed through the choice-point plumbing, yet the simulated clock
   must stay bit-identical to the unexplored golden value. *)
let golden_with_null_explorer () =
  let name, ncores, expect = ("creates", 4, 6447400L) in
  let config =
    {
      (Driver.default_config ~ncores) with
      Hare_config.Config.rpc_window = 1;
      batch_max = 1;
      alloc_extent = 1;
    }
  in
  let r =
    HareD.run ~config ~null_explorer:true (Hare_workloads.All.find name)
  in
  let cycles =
    Int64.of_float
      (r.Driver.elapsed
       *. float_of_int
            config.Hare_config.Config.costs.Hare_config.Costs.cycles_per_us
       *. 1e6
      +. 0.5)
  in
  Alcotest.(check int64) "creates @4 cores under a null explorer" expect cycles

(* The per-world result contract. The Linux baseline has no trace,
   metrics sampler, file servers or engine counters to report, even
   when the configuration asks for them. *)
let linux_result_contract () =
  let config =
    {
      config with
      Hare_config.Config.trace_enabled = true;
      metrics_interval = 20_000;
    }
  in
  let r = LinuxD.run ~config (Hare_workloads.All.find "creates") in
  check_result r;
  Alcotest.(check bool) "no profile" true (r.Driver.profile = []);
  Alcotest.(check bool) "no latencies" true (r.Driver.latencies = []);
  Alcotest.(check bool) "no loads" true (r.Driver.loads = []);
  Alcotest.(check bool) "no gauges" true (r.Driver.gauges = []);
  Alcotest.(check bool) "no knee" true (r.Driver.knee = None);
  Alcotest.(check (list int)) "engine counters" [ 0; 0; 0 ]
    [ r.Driver.engine_events; r.Driver.peak_fibers; r.Driver.spawned_fibers ];
  List.iter
    (fun (name, n) -> Alcotest.(check int) name 0 n)
    (Hare_stats.Robust.to_list r.Driver.robust)

(* On Hare the result reads the machine's own accessors: a twin run
   through [exec], with the same reset at the start of the timed region,
   shows the same engine counters, server loads (peak depths since that
   reset), robustness counters (the drops setup retried excluded) and
   timed-region syscall mix. pfind's setup builds the tree it searches,
   so its counters and one server's peak depth differ from the whole
   run's. *)
let hare_result_contract () =
  let module Machine = Hare.Machine in
  let module Engine = Hare_sim.Engine in
  let config =
    Driver.with_fault_plan "drop:fs:0.02"
      { config with Hare_config.Config.trace_enabled = true }
  in
  let spec = Hare_workloads.All.find "pfind dense" in
  let r = HareD.run ~config spec in
  let t = Test_util.exec_ok ~config ~on_start:Machine.reset_perf spec in
  let e = Machine.engine t.Driver.w in
  Alcotest.(check (list int)) "engine counters"
    [ Engine.events_executed e; Engine.peak_fibers e; Engine.spawned_fibers e ]
    [ r.Driver.engine_events; r.Driver.peak_fibers; r.Driver.spawned_fibers ];
  Alcotest.(check bool) "engine ran" true (r.Driver.engine_events > 0);
  Alcotest.(check (list (triple int int int)))
    "loads" (Machine.server_loads t.Driver.w) r.Driver.loads;
  Alcotest.(check (list (pair string int)))
    "robustness"
    (Hare_stats.Robust.to_list (Machine.robustness t.Driver.w))
    (Hare_stats.Robust.to_list r.Driver.robust);
  Alcotest.(check (list (pair string int)))
    "syscalls"
    (Hare_stats.Opcount.to_list t.Driver.calls)
    (Hare_stats.Opcount.to_list r.Driver.syscalls);
  Alcotest.(check (float 0.))
    "elapsed" (t.Driver.t1 -. t.Driver.t0) r.Driver.elapsed;
  Alcotest.(check bool) "profile" true (r.Driver.profile <> []);
  Alcotest.(check bool) "latencies" true (r.Driver.latencies <> [])

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "workloads.hare",
      List.map
        (fun (s : Spec.t) -> tc s.Spec.name `Quick (hare_case s))
        Hare_workloads.All.specs );
    ( "workloads.linux",
      List.map
        (fun (s : Spec.t) -> tc s.Spec.name `Quick (linux_case s))
        Hare_workloads.All.specs );
    ( "workloads.misc",
      [
        tc "unfs slower" `Quick unfs_case;
        tc "scaling sanity" `Quick scaling_sanity;
        tc "all techniques off" `Quick dist_off_still_correct;
        tc "golden simulated clocks" `Quick golden_determinism;
        tc "golden clock under null explorer" `Quick golden_with_null_explorer;
        tc "linux result contract" `Quick linux_result_contract;
        tc "hare result contract" `Quick hare_result_contract;
      ] );
  ]
