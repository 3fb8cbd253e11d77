(* The observer bus: every subscriber set must leave the simulation
   untouched — same seed, same clocks, opcounts and robustness counters
   with no observer, with each observer alone, and with all of them —
   on the default machine, under a drop/dup/crash fault plan, with every
   pipelining knob open, and across a live shard migration. *)

open Test_util
module Opcount = Hare_stats.Opcount
module Robust = Hare_stats.Robust

type config = { c_name : string; c_wname : string; c_config : Config.t }

let configs =
  let base = { (small_config ~ncores:4 ()) with Config.seed = 7L } in
  [
    { c_name = "default"; c_wname = "creates"; c_config = base };
    {
      c_name = "faults";
      c_wname = "writes";
      c_config =
        Hare_experiments.Driver.with_fault_plan
          "drop:fs:0.05;dup:fs:0.05;crash:1@200000+150000" base;
    };
    {
      c_name = "knobs";
      c_wname = "fsstress";
      c_config =
        {
          base with
          Config.rpc_window = 8;
          batch_max = 8;
          alloc_extent = 8;
          seed = 42L;
        };
    };
    {
      c_name = "shard";
      c_wname = "creates";
      c_config =
        {
          (small_config ~ncores:8
             ~placement:(Config.Sharded { servers = 2; vnodes = 32 })
             ())
          with
          Config.shard_plan = "add@1000";
          seed = 42L;
        };
    };
  ]

(* A subscriber set: how it changes the configuration, whether a null
   explorer (always ordinal 0) routes every same-cycle tie, and what it
   must have seen by the end of the run. *)
type subscribers = {
  s_name : string;
  s_config : Config.t -> Config.t;
  s_explorer : bool;
  s_saw : Machine.t -> unit;
}

let saw_trace m =
  match Machine.trace m with
  | Some tr ->
      Alcotest.(check bool) "trace profiled spans" true
        (Hare_trace.Trace.profile tr <> [])
  | None -> Alcotest.fail "no trace attached"

let saw_check m =
  match Machine.check m with
  | Some chk ->
      let s = Hare_check.Check.stats chk in
      Alcotest.(check bool) "sanitizer saw message edges" true
        (Hare_stats.Sanity.(get s hb_joins) > 0);
      Alcotest.(check int) "sanitizer clean" 0
        (Hare_check.Check.total_violations chk)
  | None -> Alcotest.fail "no sanitizer attached"

let saw_metrics m =
  match Machine.metrics m with
  | Some mt ->
      Alcotest.(check bool) "gauges sampled" true
        (Hare_metrics.Metrics.samples mt > 0)
  | None -> Alcotest.fail "no sampler attached"

let trace_ring c = { c with Config.trace_enabled = true; trace_ring = true }

let check c = { c with Config.check_enabled = true }

let metrics c = { c with Config.metrics_interval = 5_000 }

let profile c = { c with Config.trace_enabled = true; trace_ring = false }

let all c = metrics (check { (trace_ring c) with Config.trace_retain = 16 })

let saw_all m =
  saw_trace m;
  saw_check m;
  saw_metrics m

let subscriber_sets =
  List.map
    (fun (s_name, s_config, s_explorer, s_saw) ->
      { s_name; s_config; s_explorer; s_saw })
    [
      ("trace-ring", trace_ring, false, saw_trace);
      ("trace-profile", profile, false, saw_trace);
      ("check", check, false, saw_check);
      ("metrics", metrics, false, saw_metrics);
      ("null-explorer", Fun.id, true, ignore);
      ("all", all, true, saw_all);
    ]

(* Everything externally observable about a run. *)
let fingerprint m =
  ( (Machine.now m, Machine.total_rpcs m, Machine.total_invals m),
    ( Opcount.to_list (Machine.total_syscalls m),
      Opcount.to_list (Machine.total_server_ops m) ),
    Robust.to_list (Machine.robustness m) )

let run ?(null_explorer = false) c config =
  match HD.exec ~config ~null_explorer (Hare_workloads.All.find c.c_wname) with
  | m, failures ->
      Alcotest.(check int) "workers ok" 0 failures;
      m
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e

let test_inert c baseline s () =
  let m = run ~null_explorer:s.s_explorer c (s.s_config c.c_config) in
  let (now, rpcs, invals), (sys, ops), robust = fingerprint m in
  let (now0, rpcs0, invals0), (sys0, ops0), robust0 = Lazy.force baseline in
  Alcotest.(check int64) "clock" now0 now;
  Alcotest.(check (pair int int)) "rpcs, invals" (rpcs0, invals0) (rpcs, invals);
  Alcotest.(check (list (pair string int))) "syscalls" sys0 sys;
  Alcotest.(check (list (pair string int))) "server ops" ops0 ops;
  Alcotest.(check (list (pair string int))) "robustness counters" robust0 robust;
  if c.c_name = "shard" then
    Alcotest.(check bool) "a home actually moved" true
      (match Machine.place m with
      | Some p -> Hare_place.Place.migrations p >= 1
      | None -> false);
  s.s_saw m

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "obs-bus.zero-perturbation",
      List.concat_map
        (fun c ->
          let baseline = lazy (fingerprint (run c c.c_config)) in
          List.map
            (fun s ->
              tc (s.s_name ^ " x " ^ c.c_name) `Quick (test_inert c baseline s))
            subscriber_sets)
        configs );
  ]
