module Api = Hare_api.Api
module Config = Hare_config.Config
module Spec = Hare_workloads.Spec

type result = {
  bench : string;
  world : string;
  nprocs : int;
  scale : int;
  elapsed : float;
  ops : int;
  throughput : float;
  syscalls : Hare_stats.Opcount.t;
  profile : Hare_trace.Trace.row list;
  latencies : (string * Hare_stats.Latency.dist) list;
  robust : Hare_stats.Robust.t;
  engine : World.engine_stats;
      (* simulator event-loop counters for the whole run (boot + setup +
         timed region); all zero on the Linux baseline *)
  loads : (int * int * int) list;
      (* per physical server (sid, ops, peak queue); empty on Linux *)
  imbalance : float;
  (* telemetry (PR 9); all empty/None unless the config enabled the
     metrics sampler and/or tail retention *)
  gauges : Hare_metrics.Metrics.summary list;
      (* per-gauge time-series summaries, in registration order *)
  metrics_interval : int;  (* sampling grid, cycles; 0 = metrics off *)
  metrics_samples : int;  (* samples taken over the whole run *)
  knee : Hare_metrics.Knee.t option;
      (* first window of the timed region where the p99 latency slope
         exceeded the threshold; None when flat or untraced *)
  blame : Hare_metrics.Blame.t list;
      (* per-class tail blame reports; empty unless trace_retain > 0 *)
}

(* Per-class latency distributions of the root syscall spans that began
   at or after [since] (cycles). Shared with hare_cli's robustness report.
   Reads the trace's root-span log, not the event ring: the log is
   recorded even in profile-only mode and never loses samples to ring
   overwrite; only completed requests contribute. *)
let latencies_of_trace ?(since = 0L) tr =
  let module Trace = Hare_trace.Trace in
  let buckets = Hashtbl.create 4 in
  List.iter
    (fun (name, t0, dur) ->
      if t0 >= since then
        match Hare_stats.Latency.class_of_op name with
        | Some cls ->
            let prev =
              match Hashtbl.find_opt buckets cls with
              | Some ds -> ds
              | None -> []
            in
            Hashtbl.replace buckets cls (dur :: prev)
        | None -> ())
    (Trace.root_spans tr);
  List.filter_map
    (fun cls ->
      match Hashtbl.find_opt buckets cls with
      | Some ds -> Some (cls, Hare_stats.Latency.of_durations ds)
      | None -> None)
    Hare_stats.Latency.class_names

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
      match nprocs with
      | Some n -> n
      | None -> List.length (Config.app_cores config)
    in
    let w = W.boot config in
    (* Zero-perturbation proof hook: a trivial explorer that always
       answers ordinal 0, and takes (and drops) the bus events a real
       explorer observes, routes every same-cycle tie through the
       exploration plumbing yet must leave clocks and opcounts
       bit-identical (the golden-clock test runs both ways). *)
    if null_explorer then
      Option.iter
        (fun eng ->
          let module Obs = Hare_sim.Obs in
          Hare_sim.Engine.set_explorer eng (fun ~time:_ _ -> 0);
          Obs.subscribe (Hare_sim.Engine.obs eng) Obs.(steps lor msgs lor cache) ignore)
        (W.engine w);
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
    let init =
      W.spawn_init w ~name:("bench-" ^ spec.Spec.name) (fun p ->
          spec.Spec.setup api p ~nprocs ~scale;
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
          after w p ~failures;
          failures)
    in
    W.run w;
    (w, Option.value (W.exit_status w init) ~default:workers)

  let run ?config ?nprocs ?(scale = 1) ?(null_explorer = false)
      (spec : Spec.t) =
    let config =
      match config with Some c -> c | None -> default_config ~ncores:4
    in
    let nprocs =
      match nprocs with
      | Some n -> n
      | None -> List.length (Config.app_cores config)
    in
    let t0 = ref 0.0 and t1 = ref 0.0 in
    let ops_before = ref (Hare_stats.Opcount.create ()) in
    let w, failures =
      exec ~nprocs ~scale ~null_explorer ~config spec
        ~on_start:(fun w ->
          ops_before := Hare_stats.Opcount.snapshot (W.syscalls w);
          (* The timed region reports only its own activity: perf
             counters and the cycle-attribution profile restart here;
             setup's spans stay in the trace ring for inspection. *)
          W.reset_perf w;
          (match W.trace w with
          | Some tr -> Hare_trace.Trace.reset_profile tr
          | None -> ());
          t0 := W.seconds w)
        ~after:(fun w _ ~failures:_ -> t1 := W.seconds w)
    in
    if failures > 0 then
      failwith
        (Printf.sprintf "%s on %s: %d worker(s) failed" spec.Spec.name W.name
           failures);
    let elapsed = !t1 -. !t0 in
    let ops = spec.Spec.ops ~nprocs ~scale in
    (* Start of the timed region on the cycle clock the spans carry. *)
    let cycles_per_s =
      float_of_int config.Config.costs.Hare_config.Costs.cycles_per_us *. 1e6
    in
    let since = Int64.of_float ((!t0 *. cycles_per_s) +. 0.5) in
    (* Knee window: a handful of sampling grid points when metrics are
       on, a fixed quarter-million cycles otherwise. *)
    let knee_window =
      if config.Config.metrics_interval > 0 then
        8 * config.Config.metrics_interval
      else 250_000
    in
    {
      bench = spec.Spec.name;
      world = W.name;
      nprocs;
      scale;
      elapsed;
      ops;
      throughput = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
      (* the timed region's op mix only — setup excluded (Figure 5) *)
      syscalls = Hare_stats.Opcount.diff ~since:!ops_before (W.syscalls w);
      profile =
        (match W.trace w with
        | Some tr -> Hare_trace.Trace.profile tr
        | None -> []);
      latencies =
        (* Only spans of the timed region. *)
        (match W.trace w with
        | Some tr -> latencies_of_trace ~since tr
        | None -> []);
      robust = W.robustness w;
      engine = W.engine_stats w;
      loads = W.server_loads w;
      imbalance =
        (let served =
           List.filter_map
             (fun (_, ops, _) ->
               if ops > 0 then Some (float_of_int ops) else None)
             (W.server_loads w)
         in
         match served with
         | [] -> 1.0
         | l ->
             let mean =
               List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
             in
             List.fold_left max 0.0 l /. mean);
      gauges =
        (match W.metrics w with
        | Some m -> Hare_metrics.Metrics.summaries m
        | None -> []);
      metrics_interval = config.Config.metrics_interval;
      metrics_samples =
        (match W.metrics w with
        | Some m -> Hare_metrics.Metrics.samples m
        | None -> 0);
      knee =
        (match W.trace w with
        | Some tr ->
            let spans =
              List.filter_map
                (fun (_, s0, dur) ->
                  if s0 >= since then
                    Some (Int64.to_int s0, Int64.to_int dur)
                  else None)
                (Hare_trace.Trace.root_spans tr)
            in
            Hare_metrics.Knee.detect ~window:knee_window spans
        | None -> None);
      blame =
        (match W.trace w with
        | Some tr -> Hare_metrics.Blame.of_trace tr
        | None -> []);
    }
end
