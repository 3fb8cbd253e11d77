(* hare-cli: run Hare benchmarks and regenerate the paper's figures.

   Examples:
     hare_cli list
     hare_cli run creates --cores 8 --world linux
     hare_cli run fsstress --cores 4 --plan "crash:2@1000000+300000" --robust
     hare_cli run all --cores 4 --check
     hare_cli fig 6 --quick
*)

open Cmdliner
open Term.Syntax
module Config = Hare_config.Config
module Figures = Hare_experiments.Figures
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module Spec = Hare_workloads.Spec
module O = Hare_workloads.Overload
module Machine = Hare.Machine
module Trace = Hare_trace.Trace
module Metrics = Hare_metrics.Metrics
module Knee = Hare_metrics.Knee
module Blame = Hare_metrics.Blame
module Sanity = Hare_stats.Sanity
module Check = Hare_check.Check
module Table = Hare_stats.Table
module HD = Driver.Make (World.Hare_w)

(* ---------- shared options ---------------------------------------------- *)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let int_opt ?(docv = "N") name doc =
  Arg.(value & opt (some int) None & info [ name ] ~docv ~doc)

let file_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let cores_arg =
  Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc:"Number of cores.")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~docv:"K"
        ~doc:
          "Workload scale multiplier (1 = fast default; larger approaches \
           paper-size runs).")

let seed_arg =
  int_opt ~docv:"S" "seed"
    "Seed of the run's random choices: the simulation RNG (default: the \
     configuration's), or under $(b,explore) the pct/rand schedule (default \
     1). Same seed => identical output."

(* ---------- run: one boot -> run -> report pipeline ---------------------- *)

(* A config flag is a transformer over the configuration; unset flags
   leave the defaults (Driver.default_config plus the workload's preset)
   alone. *)
let knob arg set =
  let+ v = arg in
  fun c -> Option.fold ~none:c ~some:(set c) v

let switch name doc set =
  let+ on = flag name doc in
  fun c -> if on then set c else c

let compose ts =
  List.fold_left
    (fun acc t ->
      let+ f = acc and+ g = t in
      fun c -> g (f c))
    (Term.const Fun.id) ts

let tune_t =
  let int_knob ?docv name doc set = knob (int_opt ?docv name doc) set in
  let shard =
    let+ servers =
      int_opt ~docv:"S" "shard"
        "Consistent-hash placement: $(docv) file-server homes on a \
         rendezvous ring (extension; overrides --split)."
    and+ vnodes =
      Arg.(
        value & opt int 32
        & info [ "vnodes" ] ~docv:"V"
            ~doc:"Hash points per server on the placement ring (with --shard).")
    and+ plan =
      Arg.(
        value & opt string ""
        & info [ "shard-plan" ] ~docv:"PLAN"
            ~doc:
              "Ring-membership plan (with --shard): 'add@CYCLES' activates a \
               spare server, 'remove:SID@CYCLES' drains one; ';'-separated.")
    in
    fun c ->
      match servers with
      | Some servers ->
          {
            c with
            Config.placement = Config.Sharded { servers; vnodes };
            shard_plan = plan;
          }
      | None -> { c with Config.shard_plan = plan }
  in
  compose
    [
      int_knob ~docv:"S" "split"
        "Dedicate $(docv) cores to file servers (default: timeshare)."
        (fun c s -> { c with Config.placement = Config.Split s });
      shard;
      switch "no-dist" "Disable directory distribution." (fun c ->
          { c with Config.dir_distribution = false });
      switch "no-broadcast" "Disable directory broadcast." (fun c ->
          { c with Config.dir_broadcast = false });
      switch "no-direct" "Disable direct buffer-cache access." (fun c ->
          { c with Config.direct_access = false });
      switch "no-dircache" "Disable the directory cache." (fun c ->
          { c with Config.dir_cache = false });
      switch "no-affinity" "Disable creation affinity." (fun c ->
          { c with Config.creation_affinity = false });
      int_knob ~docv:"W" "width"
        "Distribute each directory over only $(docv) servers (extension, \
         paper §6)."
        (fun c w -> { c with Config.dist_width = Some w });
      switch "steal" "Enable block stealing between servers (extension, §3.2)."
        (fun c -> { c with Config.block_stealing = true });
      int_knob "retries" "RPC attempts before giving up with EIO." (fun c n ->
          { c with Config.rpc_retries = n });
      switch "strict-broadcast"
        "Fail broadcasts with EIO instead of returning partial results."
        (fun c -> { c with Config.partial_broadcast = false });
      knob seed_arg (fun c s -> { c with Config.seed = Int64.of_int s });
      int_knob ~docv:"W" "window" "rpc_window (1 = synchronous)." (fun c n ->
          { c with Config.rpc_window = n });
      int_knob ~docv:"B" "batch" "batch_max (1 = one request per wakeup)."
        (fun c n -> { c with Config.batch_max = n });
      int_knob ~docv:"E" "extent" "alloc_extent (1 = block-at-a-time)."
        (fun c n -> { c with Config.alloc_extent = n });
      int_knob "dircache-capacity" "Bound the client dircache (0 = unbounded)."
        (fun c n -> { c with Config.dircache_capacity = n });
      int_knob ~docv:"CYCLES" "deadline-max"
        "Ceiling on the backed-off retry deadline." (fun c n ->
          { c with Config.rpc_deadline_max = n });
      int_knob "capacity"
        "Server mailbox capacity; senders without a credit park until a \
         slot frees (0 = unbounded)."
        (fun c n -> { c with Config.mailbox_capacity = n });
      int_knob "retry-budget"
        "Per-server retry budget; an empty bucket turns timeouts into \
         immediate give-ups (0 = unlimited)."
        (fun c n -> { c with Config.retry_budget = n });
      int_knob "breaker"
        "Consecutive give-ups that open a per-server circuit breaker (0 = \
         disabled)."
        (fun c n -> { c with Config.breaker_threshold = n });
      int_knob ~docv:"CYCLES" "cooldown"
        "How long an open breaker fast-fails before probing." (fun c n ->
          { c with Config.breaker_cooldown = n });
      int_knob "watermark"
        "Server queue depth above which background (then data) requests are \
         shed with EBUSY (0 = disabled)."
        (fun c n -> { c with Config.shed_watermark = n });
      int_knob "trace-cap"
        "Trace ring-buffer capacity in events (with --trace); the oldest \
         events are dropped (and counted) beyond it. 0 = no span ring: the \
         export is a clean metadata-only artifact."
        (fun c n -> { c with Config.trace_cap = n });
      int_knob ~docv:"K" "retain"
        "Keep the complete span trees of the $(docv) slowest ops per latency \
         class, for --blame."
        (fun c k -> { c with Config.trace_retain = k });
    ]

type setup = {
  cores : int;
  nprocs : int option;
  scale : int;
  world : [ `Hare | `Linux | `Unfs ];
  preset : bool;
  period : int option;
  plan : string;
  tune : Config.t -> Config.t;  (** every config flag *)
}

let setup_t =
  let+ cores = cores_arg
  and+ nprocs =
    int_opt "nprocs"
      "Worker processes (default: one per application core, or the \
       workload's preset)."
  and+ scale = scale_arg
  and+ world =
    Arg.(
      value
      & opt (enum [ ("hare", `Hare); ("linux", `Linux); ("unfs", `Unfs) ]) `Hare
      & info [ "world" ] ~docv:"WORLD"
          ~doc:"System under test: hare, linux (tmpfs baseline), unfs.")
  and+ no_preset =
    flag "no-preset"
      "Run on the plain default machine, ignoring the workload's preset \
       (overload's: one server core, the control plane open, 3x cores \
       workers at a 30,000-cycle period)."
  and+ period =
    int_opt ~docv:"CYCLES" "period"
      "Mean inter-arrival gap per overload worker; smaller means a hotter \
       offered load."
  and+ plan =
    Arg.(
      value & opt string ""
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Fault plan, e.g. \
             'drop:fs:0.05;dup:fs1:0.02;crash:1@200000+150000'. Empty runs \
             fault-free.")
  and+ deadline =
    int_opt ~docv:"CYCLES" "deadline"
      "First-attempt RPC deadline; 0 disables retries. A fault plan arms \
       25000 when the configuration has none."
  and+ tune = tune_t in
  let tune c =
    let c = Driver.with_fault_plan plan (tune c) in
    match deadline with
    | Some d ->
        {
          c with
          Config.rpc_deadline = d;
          deadline_propagation = c.Config.deadline_propagation && d > 0;
        }
    | None -> c
  in
  { cores; nprocs; scale; world; preset = not no_preset; period; plan; tune }

type reports = {
  robust : bool;
  perf : bool;
  trace : string option;
  strict : bool;
  profile : bool;
  metrics : int option;
  blame : bool;
  series : string option;
  check : bool;
  ring : bool;
  verbose : bool;
}

let reports_t =
  let+ robust =
    flag "robust"
      "Print the robustness counters and per-class latency percentiles (and \
       the overload workload's goodput)."
  and+ perf =
    flag "perf"
      "Print the pipelining perf counters (window depth, batch histogram, \
       lease hit rate)."
  and+ trace =
    file_opt "trace"
      "Export the span trace as Perfetto-compatible (Chrome trace-event) \
       JSON: one track per core plus a DRAM track, with counter tracks."
  and+ strict =
    flag "strict" "Exit 1 when any trace events were dropped by ring rotation."
  and+ profile =
    flag "profile"
      "Print where the cycles went, per opcode: compute, send, queue-wait, \
       dispatch, cache and DRAM buckets that sum exactly to each op's cycles."
  and+ metrics =
    int_opt ~docv:"CYCLES" "metrics"
      "Sample the telemetry gauges every $(docv) simulated cycles; print the \
       gauge table and the latency knee (mirrored as counter tracks in \
       --trace)."
  and+ blame =
    flag "blame"
      "Print the per-class tail-latency blame report and the slowest op's \
       critical path (needs --retain)."
  and+ series =
    file_opt "series"
      "Dump the raw per-gauge time series as JSON (with --metrics)."
  and+ check =
    flag "check"
      "Run under the coherence sanitizer, beside an unchecked twin run whose \
       clock must match. Exit 1: violations; 2: the checker perturbed the \
       simulation."
  and+ ring =
    flag "ring"
      "Dump the placement ring (with --shard): per-server homes, \
       inode/dentry counts, load, the vnode layout, migration counters."
  and+ verbose =
    flag "verbose"
      "Also print the system-call mix (and, with --check, the checker's \
       event counters)."
  in
  {
    robust;
    perf;
    trace;
    strict;
    profile;
    metrics;
    blame;
    series;
    check;
    ring;
    verbose;
  }

let hare_only r =
  r.robust || r.perf || r.trace <> None || r.profile || r.metrics <> None
  || r.blame || r.check || r.ring

(* The configuration of one workload's run: defaults, the workload's
   preset, the config flags, then what the reports need. [fresh] makes
   a workload instance — with its own overload counters — per run. *)
let instance s r (spec : Spec.t) =
  let base = Driver.default_config ~ncores:s.cores in
  let overload = spec.Spec.name = O.spec.Spec.name in
  let preset = if s.preset && overload then Some (O.preset base) else None in
  let c = s.tune (match preset with Some p -> p.O.config | None -> base) in
  let c =
    {
      c with
      Config.metrics_interval =
        Option.value r.metrics ~default:c.Config.metrics_interval;
      check_enabled = c.Config.check_enabled || r.check;
      trace_cap = (if r.trace = None then 0 else c.Config.trace_cap);
    }
  in
  let c =
    {
      c with
      Config.trace_enabled =
        c.Config.trace_enabled || r.robust || r.profile || r.trace <> None
        || c.Config.metrics_interval > 0
        || c.Config.trace_retain > 0;
    }
  in
  let nprocs =
    match (s.nprocs, preset) with
    | Some n, _ | None, Some { O.workers = n; _ } -> Some n
    | None, None -> None
  in
  let fresh () =
    if overload then
      let period =
        match (s.period, preset) with
        | Some p, _ | None, Some { O.period = p; _ } -> p
        | None, None -> O.default_period
      in
      let spec, counters = O.make ~period () in
      (spec, Some (counters, period))
    else (spec, None)
  in
  (c, nprocs, fresh)

(* What would make this run meaningless, as a one-line error. *)
let problem r (c : Config.t) =
  let sharded =
    match c.Config.placement with Config.Sharded _ -> true | _ -> false
  in
  match Config.validate c with
  | Error msg -> Some ("bad configuration: " ^ msg)
  | Ok () when r.blame && c.Config.trace_retain = 0 ->
      Some "--blame needs --retain K > 0"
  | Ok () when r.ring && not sharded -> Some "--ring needs --shard"
  | Ok () when r.series <> None && c.Config.metrics_interval = 0 ->
      Some "--series needs --metrics N"
  | Ok () -> None

(* Run [spec] once and print the bench line for its timed region:
   throughput, plus the simulator engine's host-side cost. *)
let run_timed (type w) (module W : World.WORLD with type world = w) ~config
    ?nprocs ~scale ~verbose (spec : Spec.t) =
  let module D = Driver.Make (W) in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  let ops0 = ref (Hare_stats.Opcount.create ()) in
  let wall0 = Unix.gettimeofday () in
  let w, failures =
    D.exec ~config ?nprocs ~scale spec
      ~on_start:(fun w ->
        ops0 := Hare_stats.Opcount.snapshot (W.syscalls w);
        t0 := W.seconds w)
      ~after:(fun w _ ~failures:_ -> t1 := W.seconds w)
  in
  let wall = Unix.gettimeofday () -. wall0 in
  let nprocs =
    match nprocs with
    | Some n -> n
    | None -> List.length (Config.app_cores config)
  in
  let ops = spec.Spec.ops ~nprocs ~scale in
  let elapsed = !t1 -. !t0 in
  Printf.printf
    "%s on %s: %d procs, %d ops in %.6f simulated seconds = %.0f ops/s\n"
    spec.Spec.name W.name nprocs ops elapsed
    (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
  let es = W.engine_stats w in
  if es.World.es_events > 0 then
    Printf.printf
      "engine: %d events, peak %d live fibers, %.2fs wall (%.0f sim_ops/s \
       host-side)\n"
      es.World.es_events es.World.es_peak_fibers wall
      (if wall > 0.0 then float_of_int ops /. wall else 0.0);
  if verbose then begin
    print_endline "system-call mix:";
    Format.printf "%a@." Hare_stats.Opcount.pp
      (Hare_stats.Opcount.diff ~since:!ops0 (W.syscalls w))
  end;
  if failures > 0 then
    Printf.eprintf "error: %s: %d worker(s) failed\n%!" spec.Spec.name failures;
  (w, if failures > 0 then 1 else 0)

(* ---------- reports: each reads the finished machine (whole run) -------- *)

let counter_table headers rows =
  Table.print ~headers (List.map (fun (k, v) -> [ k; string_of_int v ]) rows)

let report_robust ~plan ~overload name m =
  Printf.printf "%s under plan %S: %.6f simulated seconds, %d RPCs\n" name plan
    (Machine.seconds m) (Machine.total_rpcs m);
  Option.iter
    (fun ((c : O.counters), period) ->
      let secs = Machine.seconds m in
      Printf.printf
        "  mean period %d cycles: sent %d | ok %d | shed %d | fast-fail %d | \
         skipped %d\n"
        period c.O.sent c.O.ok c.O.shed c.O.fast_fail c.O.skipped;
      if secs > 0. && c.O.sent > 0 then
        Printf.printf
          "  goodput %.0f ops/s of %.0f offered (%.1f%% completed)\n"
          (float_of_int c.O.ok /. secs)
          (float_of_int c.O.sent /. secs)
          (100. *. float_of_int c.O.ok /. float_of_int c.O.sent))
    overload;
  counter_table [ "robustness counter"; "count" ]
    (Hare_stats.Robust.to_list (Machine.robustness m));
  (match Option.map Driver.latencies_of_trace (Machine.trace m) with
  | None | Some [] -> ()
  | Some dists ->
      Table.print
        ~headers:[ "class"; "n"; "p50"; "p95"; "p99"; "max" ]
        (List.map
           (fun (cls, (d : Hare_stats.Latency.dist)) ->
             cls :: string_of_int d.Hare_stats.Latency.n
             :: List.map Int64.to_string
                  Hare_stats.Latency.[ d.p50; d.p95; d.p99; d.lmax ])
           dists));
  0

let report_perf (c : Config.t) name m =
  Printf.printf
    "%s: window=%d batch=%d extent=%d: %.0f simulated cycles, %d RPCs\n" name
    c.Config.rpc_window c.Config.batch_max c.Config.alloc_extent
    (Machine.seconds m
    *. float_of_int c.Config.costs.Hare_config.Costs.cycles_per_us
    *. 1e6)
    (Machine.total_rpcs m);
  let perf = Machine.perf m in
  counter_table [ "perf counter"; "value" ] (Hare_stats.Perf.to_list perf);
  Format.printf "batch-size histogram: %a@." Hare_stats.Perf.pp_hist perf;
  Format.printf "mean batch %.2f, lease hit rate %.2f@."
    (Hare_stats.Perf.mean_batch perf)
    (Hare_stats.Perf.lease_hit_rate perf);
  Printf.printf "dircache evictions: %d\n"
    (Array.fold_left
       (fun n c ->
         n + Hare_client.Dircache.evictions (Hare_client.Client.dircache c))
       0 (Machine.clients m));
  0

(* Dropped ring events mean the export is missing the oldest spans:
   shout on stderr so a truncated artifact is never mistaken for a
   complete one, and fail outright under --strict. *)
let report_trace ~strict ~out name m tr =
  Out_channel.with_open_bin out (fun oc ->
      Out_channel.output_string oc (Trace.to_chrome_json tr));
  Printf.printf
    "%s: %.6f simulated seconds; %d events on %d tracks (%d dropped) -> %s\n"
    name (Machine.seconds m)
    (List.length (Trace.events tr))
    (List.length (Trace.tracks tr))
    (Trace.dropped tr) out;
  print_endline
    (if Trace.ring_enabled tr then
       "open in https://ui.perfetto.dev or chrome://tracing"
     else "span ring empty by request (--trace-cap 0): metadata-only export");
  let d = Trace.dropped tr in
  if d = 0 then 0
  else begin
    Printf.eprintf
      "WARNING: %d trace event(s) dropped by ring rotation — this export is \
       incomplete (raise --trace-cap)\n"
      d;
    if strict then begin
      prerr_endline "--strict: failing on dropped events";
      1
    end
    else 0
  end

let report_profile name m tr =
  let rows = Trace.profile tr in
  let per_bucket = Array.make Trace.nbuckets 0L in
  let grand =
    List.fold_left
      (fun acc (r : Trace.row) ->
        Array.iteri
          (fun i c -> per_bucket.(i) <- Int64.add per_bucket.(i) c)
          r.Trace.r_buckets;
        Int64.add acc r.Trace.r_total)
      0L rows
  in
  let cells total buckets =
    Int64.to_string total :: Array.to_list (Array.map Int64.to_string buckets)
  in
  Printf.printf "%s: %.6f simulated seconds, %Ld attributed cycles\n" name
    (Machine.seconds m) grand;
  Table.print
    ~headers:([ "op"; "count"; "cycles" ] @ Trace.bucket_names)
    (List.map
       (fun (r : Trace.row) ->
         r.Trace.r_op :: string_of_int r.Trace.r_count
         :: cells r.Trace.r_total r.Trace.r_buckets)
       rows
    @ [ "TOTAL" :: "" :: cells grand per_bucket ]);
  let unattributed =
    Int64.sub grand (Array.fold_left Int64.add 0L per_bucket)
  in
  Printf.printf "unattributed cycles: %Ld (of %Ld)\n" unattributed grand;
  if unattributed <> 0L then 1 else 0

(* Raw time series as JSON: one [stamp, value] pair array per gauge, on
   the sampling grid. *)
let series_json mt =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"schema\": \"hare-metrics/1\",\n";
  add "  \"interval\": %d,\n" (Metrics.interval mt);
  add "  \"samples\": %d,\n" (Metrics.samples mt);
  add "  \"dropped\": %d,\n" (Metrics.dropped mt);
  add "  \"series\": {\n";
  let series = Metrics.series mt in
  List.iteri
    (fun i (gname, points) ->
      add "    \"%s\": [ %s ]%s\n" gname
        (String.concat ", "
           (List.map (fun (ts, v) -> Printf.sprintf "[%d, %d]" ts v) points))
        (if i < List.length series - 1 then "," else ""))
    series;
  add "  }\n}\n";
  Buffer.contents buf

let report_metrics ~series name m mt =
  Printf.printf
    "%s: %.6f simulated seconds; %d gauges sampled every %d cycles (%d \
     samples, %d overwritten)\n"
    name (Machine.seconds m) (Metrics.ngauges mt) (Metrics.interval mt)
    (Metrics.samples mt) (Metrics.dropped mt);
  Table.print
    ~headers:[ "gauge"; "n"; "min"; "max"; "mean"; "last" ]
    (List.map
       (fun (g : Metrics.summary) ->
         [
           g.Metrics.s_name;
           string_of_int g.Metrics.s_n;
           string_of_int g.Metrics.s_min;
           string_of_int g.Metrics.s_max;
           Printf.sprintf "%.1f" g.Metrics.s_mean;
           string_of_int g.Metrics.s_last;
         ])
       (Metrics.summaries mt));
  Option.iter
    (fun tr ->
      let spans =
        List.map
          (fun (_, t0, dur) -> (Int64.to_int t0, Int64.to_int dur))
          (Trace.root_spans tr)
      in
      match Knee.detect ~window:(8 * Metrics.interval mt) spans with
      | Some k ->
          Printf.printf
            "knee: p99 left the flat regime at cycle %d (window %d: %Ld -> %Ld \
             cycles over %d judged windows)\n"
            k.Knee.k_at k.Knee.k_window k.Knee.k_before k.Knee.k_after
            k.Knee.k_windows
      | None -> print_endline "knee: none (p99 stayed flat)")
    (Machine.trace m);
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (series_json mt));
      Printf.printf "wrote %s\n" file)
    series;
  0

let report_blame tr =
  (match Blame.of_trace tr with
  | [] ->
      print_endline
        "blame: nothing retained (is the run long enough for --retain?)"
  | reports -> (
      print_newline ();
      Table.print
        ~headers:
          [ "class"; "n"; "p99"; "bucket"; "srv"; "qdepth mean/max";
            "worst op"; "worst cycles" ]
        (List.map
           (fun (b : Blame.t) ->
             [
               b.Blame.b_class;
               string_of_int b.Blame.b_n;
               Int64.to_string b.Blame.b_p99;
               Printf.sprintf "%s (%.0f%%)" b.Blame.b_bucket
                 (100. *. b.Blame.b_bucket_share);
               (if b.Blame.b_srv < 0 then "-"
                else
                  Printf.sprintf "fs%d (%.0f%%)" b.Blame.b_srv
                    (100. *. b.Blame.b_srv_share));
               (if b.Blame.b_qdepth_max < 0 then "-"
                else
                  Printf.sprintf "%.1f/%d" b.Blame.b_qdepth_mean
                    b.Blame.b_qdepth_max);
               b.Blame.b_worst_op;
               string_of_int b.Blame.b_worst_dur;
             ])
           reports);
      (* Critical path of the slowest retained op overall: the exact
         bucket decomposition of its cycles. *)
      match Trace.retained tr with
      | [] -> ()
      | worst :: _ ->
          Printf.printf "\ncritical path of slowest op (%s, %d cycles):\n"
            worst.Trace.rt_op worst.Trace.rt_dur;
          List.iter
            (fun (bucket, cy) ->
              Printf.printf "  %-10s %10d  (%.0f%%)\n" bucket cy
                (100. *. float_of_int cy
                /. float_of_int (max 1 worst.Trace.rt_dur)))
            (Blame.critical_path worst)));
  0

(* Which physical server hosts which logical homes (and how much state),
   plus the migration counters a membership plan produced. *)
let report_ring m place =
  let module Place = Hare_place.Place in
  let module Server = Hare_server.Server in
  Printf.printf
    "ring: %d logical homes x %d vnodes over %d physical servers (epoch %d)\n"
    (Place.nhomes place) (Place.vnodes place) (Place.nphys place)
    (Place.epoch place);
  Printf.printf "%.6f simulated seconds; load imbalance (max/mean ops) %.2f\n\n"
    (Machine.seconds m) (Machine.imbalance m);
  let loads = Machine.server_loads m in
  Table.print
    ~headers:
      [ "srv"; "state"; "homes"; "inodes"; "dentries"; "ops"; "peak-q"; "in";
        "out"; "bounced" ]
    (Array.to_list (Machine.servers m)
    |> List.map (fun s ->
           let sid = Server.sid s in
           let ops, peak =
             List.fold_left
               (fun acc (i, o, q) -> if i = sid then (o, q) else acc)
               (0, 0) loads
           in
           [
             Printf.sprintf "fs%d" sid;
             (if Place.active place sid then "active" else "retired");
             String.concat "," (List.map string_of_int (Server.hosted_homes s));
           ]
           @ List.map string_of_int
               [
                 Server.inode_count s; Server.dentry_count s; ops; peak;
                 Server.homes_migrated_in s; Server.homes_migrated_out s;
                 Server.moved_rejects s;
               ]));
  print_newline ();
  (* Vnode layout: each home's current route and its rendezvous weight
     there (the argmax over the active servers' points). *)
  Table.print
    ~headers:[ "home"; "srv"; "weight" ]
    (List.init (Place.nhomes place) (fun h ->
         let srv = Place.phys place h in
         [
           string_of_int h;
           Printf.sprintf "fs%d" srv;
           Printf.sprintf "%08x"
             (Place.weight place ~home:h ~srv land 0xffffffff);
         ]));
  Printf.printf
    "\nmigrations: %d moved, %d aborted; clients chased %d EMOVED bounce(s)\n"
    (Place.migrations place) (Place.aborted place)
    (Machine.total_moved_retries m);
  0

(* The sanitizer verdict accumulates over every workload of the run and
   is printed once at the end. *)
type verdict = {
  total : Sanity.t;
  mutable recorded : Check.violation list;
  mutable perturbed : bool;
}

(* The check contract: the checked run's clock must match an unchecked
   twin's cycle for cycle, else the checker perturbed the simulation. *)
let report_check verdict ~twin name m =
  if Machine.now twin <> Machine.now m then begin
    verdict.perturbed <- true;
    Printf.printf "%s: PERTURBED: %Ld cycles unchecked vs %Ld checked\n" name
      (Machine.now twin) (Machine.now m)
  end
  else
    Printf.printf
      "%s: %.6f simulated seconds, clock identical with checking on\n" name
      (Machine.seconds m);
  Option.iter
    (fun chk ->
      Sanity.merge ~into:verdict.total (Check.stats chk);
      verdict.recorded <- verdict.recorded @ Check.violations chk)
    (Machine.check m)

let print_verdict ~verbose v =
  counter_table [ "rule"; "violations" ] (Sanity.violations v.total);
  if verbose then
    counter_table [ "checker counter"; "value" ] (Sanity.to_list v.total);
  List.iteri
    (fun i x -> if i < 20 then Format.printf "%a@." Check.pp_violation x)
    v.recorded;
  let n = List.length v.recorded in
  if n > 20 then Printf.printf "... and %d more\n" (n - 20);
  if v.perturbed then begin
    print_endline "FAIL: the sanitizer perturbed the simulation";
    2
  end
  else if Sanity.total_violations v.total > 0 then begin
    print_endline "FAIL: coherence/protocol violations detected";
    1
  end
  else begin
    print_endline "OK: no violations, zero perturbation";
    0
  end

(* One workload through the pipeline; the exit code is the worst of the
   worker outcome and every requested report's. *)
let run_one s r verdict (spec : Spec.t) =
  let config, nprocs, fresh = instance s r spec in
  match problem r config with
  | Some msg ->
      prerr_endline msg;
      1
  | None -> (
      let scale = s.scale and verbose = r.verbose in
      let spec, overload = fresh () in
      match s.world with
      | `Linux ->
          snd
            (run_timed (module World.Linux_w) ~config ?nprocs ~scale ~verbose
               spec)
      | `Unfs ->
          snd
            (run_timed (module World.Hare_w) ~config:(World.unfs_config config)
               ?nprocs ~scale ~verbose spec)
      | `Hare ->
          let m, rc =
            run_timed (module World.Hare_w) ~config ?nprocs ~scale ~verbose spec
          in
          let name = spec.Spec.name in
          let traced f () =
            match Machine.trace m with Some tr -> f tr | None -> 0
          in
          (* Reports print in this order; each is a thunk so it runs only
             when requested. *)
          let reports =
            [
              (r.robust, fun () -> report_robust ~plan:s.plan ~overload name m);
              (r.perf, fun () -> report_perf config name m);
              ( r.trace <> None,
                traced
                  (report_trace ~strict:r.strict
                     ~out:(Option.value r.trace ~default:"")
                     name m) );
              (r.profile, traced (report_profile name m));
              ( config.Config.metrics_interval > 0,
                fun () ->
                  Option.fold ~none:0
                    ~some:(report_metrics ~series:r.series name m)
                    (Machine.metrics m) );
              (r.blame, traced report_blame);
              ( r.ring,
                fun () ->
                  Option.fold ~none:0 ~some:(report_ring m) (Machine.place m) );
            ]
          in
          let rc =
            List.fold_left
              (fun rc (wanted, report) ->
                if wanted then max rc (report ()) else rc)
              rc reports
          in
          if r.check then begin
            let twin, _ =
              HD.exec
                ~config:{ config with Config.check_enabled = false }
                ?nprocs ~scale (fst (fresh ()))
            in
            report_check verdict ~twin name m
          end;
          rc)

let run_cmd =
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark name (see `hare_cli list`), or 'all'.")
  in
  let go name s r =
    let specs =
      if name = "all" then Some Hare_workloads.All.specs
      else
        List.find_opt
          (fun (sp : Spec.t) -> sp.Spec.name = name)
          Hare_workloads.All.specs
        |> Option.map (fun sp -> [ sp ])
    in
    let refuse msg =
      prerr_endline msg;
      1
    in
    match (specs, Hare_fault.Plan.parse s.plan) with
    | None, _ ->
        refuse (Printf.sprintf "unknown benchmark %S; try `hare_cli list`" name)
    | _, Error msg -> refuse ("bad --plan: " ^ msg)
    | Some _, Ok _ when s.world <> `Hare && hare_only r ->
        refuse "the report flags need --world hare"
    | Some (_ :: _ :: _), Ok _ when r.trace <> None || r.series <> None ->
        refuse "--trace and --series write one file: name a single benchmark"
    | Some specs, Ok _ ->
        let verdict =
          { total = Sanity.create (); recorded = []; perturbed = false }
        in
        let rc =
          List.fold_left
            (fun rc spec -> max rc (run_one s r verdict spec))
            0 specs
        in
        if r.check then max rc (print_verdict ~verbose:r.verbose verdict)
        else rc
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one benchmark (or all of them) and print its throughput and the \
          simulator engine's host-side cost, plus any requested reports. \
          Config flags set up the machine over the default configuration and \
          the workload's preset; report flags compose. Every report covers \
          the whole run (setup included); the throughput line covers the \
          timed region. Machines up to 512 cores are practical, e.g. \
          $(b,run creates --cores 512 --split 64). Exit 0: clean; 1: a \
          failed worker, a report failure, violations or bad arguments; 2: \
          the sanitizer perturbed the simulation.")
    Term.(const go $ bench_arg $ setup_t $ reports_t)

(* ---------- fig command ------------------------------------------------- *)

let run_fig which quick scale =
  let opts =
    let base = if quick then Figures.quick else Figures.default in
    { base with Figures.scale }
  in
  let print f =
    f ();
    0
  in
  match which with
  | "4" -> print Figures.print_fig4
  | "5" -> print (fun () -> Figures.print_fig5 opts)
  | "6" -> print (fun () -> Figures.print_fig6 opts)
  | "7" -> print (fun () -> Figures.print_fig7 opts)
  | "8" -> print (fun () -> Figures.print_fig8 opts)
  | "9" | "10" | "11" | "12" | "13" | "14" ->
      print (fun () -> Figures.print_techniques opts)
  | "15" -> print (fun () -> Figures.print_fig15 opts)
  | "micro" -> print (fun () -> Figures.print_micro opts)
  | "ext" | "extensions" -> print (fun () -> Figures.print_extensions opts)
  | "all" -> print (fun () -> Figures.print_all opts)
  | other ->
      Printf.eprintf "unknown figure %S (use 4-15, micro, ext, all)\n" other;
      1

let fig_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIG"
          ~doc:"Figure number (4-15), 'micro', 'ext', or 'all'.")
  in
  let quick =
    flag "quick" "Use small machine sizes (8 cores) for a fast run."
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate one of the paper's figures or tables.")
    Term.(const run_fig $ which $ quick $ scale_arg)

(* ---------- shell command ----------------------------------------------- *)

(* An interactive shell over a live simulated machine: each command is a
   POSIX call issued by the init process; the simulation advances while
   the command executes. *)
let shell_help =
  {|commands:
  ls [dir]            readdir
  cat FILE            print a file
  write FILE TEXT..   create/overwrite a file
  append FILE TEXT..  append to a file
  mkdir [-d] DIR      create a directory (-d: distributed)
  rm FILE | rmdir DIR
  mv OLD NEW          rename
  stat PATH           attributes
  cd DIR | pwd
  spawn N             run N remote workers that each create a file in /shell
  time                simulated time so far
  help | exit
|}

let run_shell cores =
  let module Posix = Hare.Posix in
  let m = Machine.boot (Driver.default_config ~ncores:cores) in
  Machine.register_program m "shell-worker" (fun p args ->
      let id = match args with a :: _ -> a | [] -> "?" in
      let fd =
        Posix.openf p
          (Printf.sprintf "/shell/worker-%s-core%d" id
             p.Hare_proc.Process.core_id)
          Hare_proto.Types.flags_w
      in
      ignore (Posix.write p fd ("written by worker " ^ id));
      Posix.close p fd;
      0);
  let init, _console =
    Machine.spawn_init m ~name:"shell" (fun p _ ->
        print_string shell_help;
        let quit = ref false in
        while not !quit do
          Printf.printf "hare:%s> %!" (Posix.getcwd p);
          match In_channel.input_line In_channel.stdin with
          | None -> quit := true
          | Some line -> (
              let words =
                String.split_on_char ' ' line |> List.filter (( <> ) "")
              in
              try
                match words with
                | [] -> ()
                | [ "exit" ] | [ "quit" ] -> quit := true
                | [ "help" ] -> print_string shell_help
                | [ "pwd" ] -> print_endline (Posix.getcwd p)
                | [ "cd"; d ] -> Posix.chdir p d
                | [ "ls" ] | [ "ls"; _ ] ->
                    let dir = match words with [ _; d ] -> d | _ -> "." in
                    List.iter
                      (fun (e : Hare_proto.Wire.entry) ->
                        Printf.printf "%s%s\n" e.Hare_proto.Wire.e_name
                          (if e.Hare_proto.Wire.e_ftype = Hare_proto.Types.Dir
                           then "/"
                           else ""))
                      (Posix.readdir p dir)
                | [ "cat"; f ] ->
                    let fd = Posix.openf p f Hare_proto.Types.flags_r in
                    print_endline (Posix.read_all p fd);
                    Posix.close p fd
                | "write" :: f :: rest ->
                    let fd = Posix.openf p f Hare_proto.Types.flags_w in
                    ignore (Posix.write p fd (String.concat " " rest));
                    Posix.close p fd
                | "append" :: f :: rest ->
                    let fd = Posix.openf p f Hare_proto.Types.flags_a in
                    ignore (Posix.write p fd (String.concat " " rest));
                    Posix.close p fd
                | [ "mkdir"; "-d"; d ] -> Posix.mkdir p ~dist:true d
                | [ "mkdir"; d ] -> Posix.mkdir p d
                | [ "rm"; f ] -> Posix.unlink p f
                | [ "rmdir"; d ] -> Posix.rmdir p d
                | [ "mv"; a; b ] -> Posix.rename p a b
                | [ "stat"; path ] ->
                    let a = Posix.stat p path in
                    Printf.printf "ino=%d:%d type=%s size=%d dist=%b\n"
                      a.Hare_proto.Types.a_ino.Hare_proto.Types.server
                      a.Hare_proto.Types.a_ino.Hare_proto.Types.ino
                      (match a.Hare_proto.Types.a_ftype with
                      | Hare_proto.Types.Dir -> "dir"
                      | Hare_proto.Types.Reg -> "file"
                      | Hare_proto.Types.Fifo -> "fifo")
                      a.Hare_proto.Types.a_size a.Hare_proto.Types.a_dist
                | [ "spawn"; n ] ->
                    if not (Posix.exists p "/shell") then
                      Posix.mkdir p ~dist:true "/shell";
                    let pids =
                      List.init (int_of_string n) (fun i ->
                          Posix.spawn p ~prog:"shell-worker"
                            ~args:[ string_of_int i ])
                    in
                    List.iter
                      (fun pid ->
                        Printf.printf "pid %d -> exit %d\n" pid
                          (Posix.waitpid p pid))
                      pids
                | [ "time" ] ->
                    Printf.printf "%.3f simulated ms\n"
                      (Machine.seconds m *. 1000.0)
                | _ -> print_endline "unknown command; try 'help'"
              with Hare_proto.Errno.Error (e, ctx) ->
                Printf.printf "error: %s (%s)\n" (Hare_proto.Errno.to_string e)
                  ctx)
        done;
        0)
  in
  Machine.run m;
  ignore init;
  0

let shell_cmd =
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive shell on a live simulated Hare machine (reads \
          commands from stdin; try 'help').")
    Term.(const run_shell $ cores_arg)

(* ---------- explore: systematic schedule exploration --------------------- *)

let run_explore list_only scenario strategy seed budget mutate replay =
  let module R = Hare_explore.Runner in
  let module S = Hare_explore.Scenario in
  let bad_args msg =
    Printf.eprintf "%s (hare_cli explore --list shows the choices)\n" msg;
    2
  in
  let strategy =
    match (replay, strategy) with
    | Some csv, _ -> (
        let ordinals =
          List.filter (( <> ) "") (String.split_on_char ',' csv)
        in
        match List.filter_map int_of_string_opt ordinals with
        | choices when List.length choices = List.length ordinals ->
            Ok (R.Replay choices)
        | _ -> Error ("bad --replay " ^ csv ^ ": expected choice ordinals"))
    | None, "dpor" -> Ok R.Dpor
    | None, "pct" -> Ok (R.Pct (Option.value seed ~default:1))
    | None, "rand" -> Ok (R.Rand (Option.value seed ~default:1))
    | None, "det" -> Ok R.Deterministic
    | None, s -> Error ("unknown strategy " ^ s ^ " (dpor, pct, rand, det)")
  in
  if list_only then begin
    print_endline "scenarios:";
    List.iter
      (fun sc -> Printf.printf "  %-8s %s\n" sc.S.sc_name sc.S.sc_doc)
      S.all;
    print_endline "mutations (--mutate):";
    List.iter (fun m -> Printf.printf "  %s\n" m) S.mutations;
    0
  end
  else
    match (S.find scenario, strategy, mutate) with
    | exception Not_found ->
        bad_args (Printf.sprintf "unknown scenario %S" scenario)
    | _, Error msg, _ -> bad_args msg
    | _, _, Some m when not (List.mem m S.mutations) ->
        bad_args (Printf.sprintf "unknown mutation %S" m)
    | sc, Ok strategy, _ ->
        let st = R.explore ~scenario:sc ?mutate ~strategy ~budget () in
        Printf.printf
          "%s strategy=%s%s: %d schedule(s), %d choice point(s), depth %d, %d \
           sleep-set prune(s)%s\n"
          sc.S.sc_name (R.strategy_name strategy)
          (match mutate with Some m -> " mutate=" ^ m | None -> "")
          st.R.schedules st.R.choice_points st.R.max_depth st.R.sleep_blocked
          (if st.R.complete then ", exhaustive" else "");
        List.iter
          (fun (v : R.violation) ->
            Printf.printf "VIOLATION [%s]\n%s\n" v.R.v_kind v.R.v_detail;
            Printf.printf "  reproduce: hare_cli explore %s%s --replay %s\n"
              sc.S.sc_name
              (match mutate with Some m -> " --mutate " ^ m | None -> "")
              (match v.R.v_choices with
              | [] -> "0"
              | cs -> String.concat "," (List.map string_of_int cs)))
          st.R.violations;
        if st.R.violations = [] then begin
          print_endline "no violations";
          0
        end
        else 1

let explore_cmd =
  let scenario_arg =
    Arg.(
      value
      & pos 0 string "collide"
      & info [] ~docv:"SCENARIO" ~doc:"Exploration scenario (see $(b,--list)).")
  in
  let strategy_arg =
    Arg.(
      value & opt string "dpor"
      & info [ "strategy" ] ~docv:"STRAT"
          ~doc:
            "Schedule strategy: $(b,dpor) (exhaustive, sleep-set reduced), \
             $(b,pct) (seeded random priorities), $(b,rand) (seeded uniform), \
             $(b,det) (the engine's deterministic order; one run).")
  in
  let budget_arg =
    Arg.(
      value & opt int 500
      & info [ "budget" ] ~docv:"N" ~doc:"Maximum executions before giving up.")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"M"
          ~doc:"Run with a seeded protocol mutation switched on.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"CSV"
          ~doc:
            "Replay one schedule: comma-separated choice ordinals as printed \
             in a violation report (overrides $(b,--strategy)).")
  in
  let list_flag = flag "list" "List scenarios and mutations, then exit." in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore same-cycle event orderings of a tiny \
          workload, checking every schedule with the coherence sanitizer and \
          a close-to-open linearizability oracle. Exit 0: clean; 1: \
          violation found (with a $(b,--replay) recipe); 2: bad arguments.")
    Term.(
      const run_explore $ list_flag $ scenario_arg $ strategy_arg $ seed_arg
      $ budget_arg $ mutate_arg $ replay_arg)

(* ---------- list command ------------------------------------------------ *)

let run_list () =
  List.iter
    (fun (s : Spec.t) ->
      Printf.printf "%-14s (%s placement%s)\n" s.Spec.name
        (match s.Spec.exec_policy with
        | Config.Random_placement -> "random"
        | Config.Round_robin -> "round-robin")
        (if s.Spec.uses_dist then ", distributed dirs" else ""))
    Hare_workloads.All.specs;
  0

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List available benchmarks.")
    Term.(const run_list $ const ())

let main =
  Cmd.group
    (Cmd.info "hare_cli" ~version:"1.0"
       ~doc:
         "Hare, a file system for non-cache-coherent multicores, in \
          simulation: benchmarks and paper-figure reproduction.")
    [ run_cmd; fig_cmd; explore_cmd; list_cmd; shell_cmd ]

let () = exit (Cmd.eval' main)
