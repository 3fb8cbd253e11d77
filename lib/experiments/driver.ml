module Api = Hare_api.Api
module Config = Hare_config.Config
module Spec = Hare_workloads.Spec
module Machine = Hare.Machine
module Engine = Hare_sim.Engine
module Trace = Hare_trace.Trace
module Opcount = Hare_stats.Opcount
module Metrics = Hare_metrics.Metrics

type 'w timed = {
  w : 'w;
  failures : int;
  procs : int;
  t0 : float;
  t1 : float;
  calls : Opcount.t;
  crash : (string * exn) option;
}

type result = {
  bench : string;
  world : string;
  nprocs : int;
  scale : int;
  elapsed : float;
  ops : int;
  throughput : float;
  syscalls : Opcount.t;
  profile : Trace.row list;
  latencies : (string * Hare_stats.Latency.dist) list;
  robust : Hare_stats.Robust.t;
  engine_events : int;
  peak_fibers : int;
  spawned_fibers : int;
  loads : (int * int * int) list;
  gauges : Metrics.summary list;
  metrics_interval : int;
  metrics_samples : int;
  knee : Hare_metrics.Knee.t option;
  blame : Hare_metrics.Blame.t list;
}

(* Max/mean served-operation ratio over the servers that did any work
   (a spare that was added late or drained early still counts once it
   served anything). *)
let imbalance loads =
  let served =
    List.filter_map
      (fun (_, ops, _) -> if ops > 0 then Some (float_of_int ops) else None)
      loads
  in
  match served with
  | [] -> 1.0
  | l ->
      let mean = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      List.fold_left max 0.0 l /. mean

(* Per-class latency distributions of the given root spans; classes
   with no samples are omitted. *)
let latencies spans =
  let module L = Hare_stats.Latency in
  List.filter_map
    (fun cls ->
      match
        List.filter_map
          (fun (op, _, dur) -> if L.class_of_op op = Some cls then Some dur else None)
          spans
      with
      | [] -> None
      | ds -> Some (cls, L.of_durations ds))
    L.class_names

let default_config ~ncores =
  {
    Config.default with
    Config.ncores;
    (* 512 MiB of (lazily materialized) buffer cache: big enough that no
       per-server partition empties even when creation affinity clusters
       a whole tree's inodes on one server (the paper's 2 GiB never
       fills, so the optional block stealing, [Config.block_stealing],
       stays off as in the prototype). *)
    buffer_cache_blocks = 131072;
    pcache_lines = 4096;
  }

let with_fault_plan plan (c : Config.t) =
  (* Wire faults only bite tagged (retryable) requests: a plan on a
     machine without a deadline would never retry a dropped message. *)
  if plan <> "" && c.Config.rpc_deadline = 0 then
    { c with Config.fault_plan = plan; rpc_deadline = 25_000 }
  else { c with Config.fault_plan = plan }

module Make (W : World.WORLD) = struct
  let exec ?nprocs ?(scale = 1) ?(null_explorer = false) ?(on_start = ignore)
      ?(after = fun _ _ ~failures:_ -> ()) ~config (spec : Spec.t) =
    let config = { config with Config.exec_policy = spec.Spec.exec_policy } in
    let nprocs =
      Option.value nprocs ~default:(List.length (Config.app_cores config))
    in
    let w = W.boot config in
    (* Zero-perturbation proof hook: a trivial explorer that always
       answers ordinal 0, and takes (and drops) the bus events a real
       explorer observes, routes every same-cycle tie through the
       exploration plumbing yet must leave clocks and opcounts
       bit-identical (the golden-clock test runs both ways). *)
    if null_explorer then
      Option.iter
        (fun m ->
          let module Obs = Hare_sim.Obs in
          let eng = Machine.engine m in
          Engine.set_explorer eng (fun ~time:_ _ -> 0);
          Obs.subscribe (Engine.obs eng) Obs.(steps lor msgs lor cache) ignore)
        (W.machine w);
    let api = W.api w in
    List.iter
      (fun (prog, body) -> api.Api.register_program prog body)
      (spec.Spec.programs api);
    api.Api.register_program "bench-worker" (fun p args ->
        let idx = match args with a :: _ -> int_of_string a | [] -> 0 in
        spec.Spec.worker api p ~idx ~nprocs ~scale;
        0);
    let workers =
      match spec.Spec.mode with Spec.Workers -> nprocs | Spec.Make -> 1
    in
    let t0 = ref 0.0 and t1 = ref 0.0 in
    let before = ref (Opcount.create ()) in
    let init =
      W.spawn_init w ~name:("bench-" ^ spec.Spec.name) (fun p ->
          spec.Spec.setup api p ~nprocs ~scale;
          before := Opcount.snapshot (W.syscalls w);
          t0 := W.seconds w;
          on_start w;
          let pids =
            List.init workers (fun i ->
                api.Api.spawn p ~prog:"bench-worker"
                  ~args:[ string_of_int i ])
          in
          let failures =
            List.fold_left
              (fun acc pid ->
                if api.Api.waitpid p pid <> 0 then acc + 1 else acc)
              0 pids
          in
          t1 := W.seconds w;
          after w p ~failures;
          failures)
    in
    let crash =
      match W.run w with
      | () -> None
      | exception Engine.Fiber_failure (name, e) -> Some (name, e)
    in
    {
      w;
      failures = Option.value (W.exit_status w init) ~default:workers;
      procs = nprocs;
      t0 = !t0;
      t1 = !t1;
      (* the timed region's op mix only: setup excluded (Figure 5) *)
      calls = Opcount.diff ~since:!before (W.syscalls w);
      crash;
    }

  let measure ~config ~scale ~since (spec : Spec.t) t =
    let nprocs = t.procs and elapsed = t.t1 -. t.t0 in
    let ops = spec.Spec.ops ~nprocs ~scale in
    (* The window's start on the cycle clock the spans carry. *)
    let cycles_per_s =
      float_of_int config.Config.costs.Hare_config.Costs.cycles_per_us *. 1e6
    in
    let since = Int64.of_float ((since *. cycles_per_s) +. 0.5) in
    (* Knee window: a handful of sampling grid points when metrics are
       on, a fixed quarter-million cycles otherwise. *)
    let knee_window =
      if config.Config.metrics_interval > 0 then
        8 * config.Config.metrics_interval
      else 250_000
    in
    let m = W.machine t.w in
    let trace = Option.bind m Machine.trace
    and metrics = Option.bind m Machine.metrics in
    let engine f =
      Option.fold ~none:0 ~some:(fun m -> f (Machine.engine m)) m
    in
    (* The window's completed root spans, from the trace's root-span
       log rather than its event ring: the log is kept even in
       profile-only mode and never loses a span to ring overwrite. *)
    let spans =
      Option.fold trace ~none:[] ~some:(fun tr ->
          List.filter (fun (_, s0, _) -> s0 >= since) (Trace.root_spans tr))
    in
    {
      bench = spec.Spec.name;
      world = W.name;
      nprocs;
      scale;
      elapsed;
      ops;
      throughput = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
      syscalls = t.calls;
      profile = Option.fold ~none:[] ~some:Trace.profile trace;
      latencies = latencies spans;
      robust =
        Option.fold m ~none:(Hare_stats.Robust.create ())
          ~some:Machine.robustness;
      engine_events = engine Engine.events_executed;
      peak_fibers = engine Engine.peak_fibers;
      spawned_fibers = engine Engine.spawned_fibers;
      loads = Option.fold ~none:[] ~some:Machine.server_loads m;
      gauges = Option.fold ~none:[] ~some:Metrics.summaries metrics;
      metrics_interval = config.Config.metrics_interval;
      metrics_samples = Option.fold ~none:0 ~some:Metrics.samples metrics;
      knee =
        Hare_metrics.Knee.detect ~window:knee_window
          (List.map
             (fun (_, s0, dur) -> (Int64.to_int s0, Int64.to_int dur))
             spans);
      blame = Option.fold ~none:[] ~some:Hare_metrics.Blame.of_trace trace;
    }

  let run ?config ?nprocs ?(scale = 1) ?(null_explorer = false)
      (spec : Spec.t) =
    let config = Option.value config ~default:(default_config ~ncores:4) in
    let t =
      exec ?nprocs ~scale ~null_explorer ~config spec ~on_start:(fun w ->
          (* The timed region reports only its own activity: perf
             counters and the cycle-attribution profile restart here;
             setup's spans stay in the trace ring for inspection. *)
          Option.iter
            (fun m ->
              Machine.reset_perf m;
              Option.iter Trace.reset_profile (Machine.trace m))
            (W.machine w))
    in
    Option.iter
      (fun (name, e) -> raise (Engine.Fiber_failure (name, e)))
      t.crash;
    if t.failures > 0 then
      Printf.ksprintf failwith "%s on %s: %d worker(s) failed" spec.Spec.name
        W.name t.failures;
    measure ~config ~scale ~since:t.t0 spec t
end
