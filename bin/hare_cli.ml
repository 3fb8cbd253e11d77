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
   alone. Each row of Config.knobs is one flag, applied after [acc]. *)
let knob_t acc (k : Config.knob) =
  let+ before = acc
  and+ set =
    match k.Config.setting with
    | Config.Int { docv; set; _ } ->
        let+ v = int_opt ~docv k.Config.flag k.Config.doc in
        fun c -> Option.fold ~none:c ~some:(set c) v
    | Config.Switch set ->
        let+ on = flag k.Config.flag k.Config.doc in
        if on then set else Fun.id
  in
  fun c -> set (before c)

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
  and+ split =
    int_opt ~docv:"S" "split"
      "Dedicate $(docv) cores to file servers (default: timeshare)."
  and+ servers =
    int_opt ~docv:"S" "shard"
      "Consistent-hash placement: $(docv) file-server homes on a \
       rendezvous ring (extension; overrides --split)."
  and+ vnodes =
    Arg.(
      value & opt int 32
      & info [ "vnodes" ] ~docv:"V"
          ~doc:"Hash points per server on the placement ring (with --shard).")
  and+ shard_plan =
    Arg.(
      value & opt string ""
      & info [ "shard-plan" ] ~docv:"PLAN"
          ~doc:
            "Ring-membership plan (with --shard): 'add@CYCLES' activates a \
             spare server, 'remove:SID@CYCLES' drains one; ';'-separated.")
  and+ seed = seed_arg
  and+ knobs = List.fold_left knob_t (Term.const Fun.id) Config.knobs in
  (* In order: placement and seed, the table's knobs, the fault plan
     (which arms a deadline when there is none), then --deadline. *)
  let tune c =
    let placement =
      match (servers, split) with
      | Some servers, _ -> Config.Sharded { servers; vnodes }
      | None, Some s -> Config.Split s
      | None, None -> c.Config.placement
    in
    let seed = Option.fold ~none:c.Config.seed ~some:Int64.of_int seed in
    let c = knobs { c with Config.placement; shard_plan; seed } in
    let c = Driver.with_fault_plan plan c in
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
  robust : bool; perf : bool; trace : string option; strict : bool;
  profile : bool; metrics : int option; blame : bool; series : string option;
  check : bool; ring : bool; verbose : bool;
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
    flag "strict"
      "Exit 1 when any trace events were dropped by ring rotation (with \
       --trace)."
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
  { robust; perf; trace; strict; profile; metrics; blame; series; check; ring;
    verbose }

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
  let metrics_interval =
    Option.value r.metrics ~default:c.Config.metrics_interval
  in
  let c =
    {
      c with
      Config.metrics_interval;
      check_enabled = c.Config.check_enabled || r.check;
      trace_cap = (if r.trace = None then 0 else c.Config.trace_cap);
      trace_enabled =
        c.Config.trace_enabled || r.robust || r.profile || r.trace <> None
        || metrics_interval > 0 || c.Config.trace_retain > 0;
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

(* What would make this workload's run meaningless, as a one-line error. *)
let problem s r (spec : Spec.t) (c : Config.t) =
  let sharded =
    match c.Config.placement with Config.Sharded _ -> true | _ -> false
  in
  match Config.validate c with
  | Error msg ->
      let preset = s.preset && spec.Spec.name = O.spec.Spec.name in
      Some ("bad configuration: " ^ msg
            ^ if preset then " (under its preset; --no-preset drops it)" else "")
  | Ok () when s.scale < 1 -> Some "--scale must be at least 1"
  | Ok () when Option.fold ~none:false ~some:(fun n -> n < 1) s.nprocs ->
      Some "--nprocs must be at least 1"
  | Ok () when r.blame && c.Config.trace_retain = 0 ->
      Some "--blame needs --retain K > 0"
  | Ok () when r.ring && not sharded -> Some "--ring needs --shard"
  | Ok () when r.series <> None && c.Config.metrics_interval = 0 ->
      Some "--series needs --metrics N"
  | Ok () when r.strict && r.trace = None -> Some "--strict needs --trace"
  | Ok () -> None

(* ---------- reports: the run's record, or the machine it left ----------- *)

let report_perf (c : Config.t) name m =
  Printf.printf
    "%s: window=%d batch=%d extent=%d: %Ld simulated cycles, %d RPCs\n" name
    c.Config.rpc_window c.Config.batch_max c.Config.alloc_extent
    (Machine.now m) (Machine.total_rpcs m);
  Hare_stats.Perf.report (Machine.perf m);
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

let report_metrics ~series name m (r : Driver.result) mt =
  Printf.printf
    "%s: %.6f simulated seconds; %d gauges sampled every %d cycles (%d \
     samples, %d overwritten)\n"
    name (Machine.seconds m) (List.length r.Driver.gauges)
    r.Driver.metrics_interval r.Driver.metrics_samples (Metrics.dropped mt);
  Metrics.print_summaries r.Driver.gauges;
  Knee.print r.Driver.knee;
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Hare_stats.Json.to_string (Metrics.series_json mt)));
      Printf.printf "wrote %s\n" file)
    series;
  0

(* Which physical server hosts which logical homes (and how much state),
   plus the migration counters a membership plan produced. *)
let report_ring m (r : Driver.result) place =
  let module Place = Hare_place.Place in
  let module Server = Hare_server.Server in
  Printf.printf
    "ring: %d logical homes x %d vnodes over %d physical servers (epoch %d)\n"
    (Place.nhomes place) (Place.vnodes place) (Place.nphys place)
    (Place.epoch place);
  Printf.printf "%.6f simulated seconds; load imbalance (max/mean ops) %.2f\n\n"
    (Machine.seconds m) (Driver.imbalance r.Driver.loads);
  Table.print
    ~headers:
      [ "srv"; "state"; "homes"; "inodes"; "dentries"; "ops"; "peak-q"; "in";
        "out"; "bounced" ]
    (Array.to_list (Machine.servers m)
    |> List.map (fun s ->
           let sid = Server.sid s in
           [
             Printf.sprintf "fs%d" sid;
             (if Place.active place sid then "active" else "retired");
             String.concat "," (List.map string_of_int (Server.hosted_homes s));
           ]
           @ List.map string_of_int
               [
                 Server.inode_count s; Server.dentry_count s;
                 Hare_stats.Opcount.total (Server.ops s); Server.peak_queue s;
                 Place.moved_in place sid; Place.moved_out place sid;
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

(* The check contract: the checked run's clock must match an unchecked
   twin's cycle for cycle, else the checker perturbed the simulation.
   The verdict accumulates over every workload of the run and is
   printed once at the end. *)
let report_check verdict ~twin name m =
  if Machine.now twin <> Machine.now m then begin
    Check.perturbed verdict;
    Printf.printf "%s: PERTURBED: %Ld cycles unchecked vs %Ld checked\n" name
      (Machine.now twin) (Machine.now m)
  end
  else
    Printf.printf
      "%s: %.6f simulated seconds, clock identical with checking on\n" name
      (Machine.seconds m);
  Option.iter (Check.record verdict) (Machine.check m)

(* One workload through the pipeline: run it, measure the whole run
   once, print the bench line for its timed region (throughput, plus the
   simulator engine's host-side cost), then each requested report from
   that record. The exit code is the worst of the worker outcome and
   every report's. *)
let run_one s r verdict (config, nprocs, fresh) =
  let spec, overload = fresh () in
  let (module W : World.WORLD), config =
    match s.world with
    | `Linux -> ((module World.Linux_w : World.WORLD), config)
    | `Unfs -> ((module World.Hare_w), World.unfs_config config)
    | `Hare -> ((module World.Hare_w), config)
  in
  let module D = Driver.Make (W) in
  let scale = s.scale and name = spec.Spec.name in
  let wall0 = Unix.gettimeofday () in
  let t = D.exec ~config ?nprocs ~scale spec in
  let wall = Unix.gettimeofday () -. wall0 in
  let res = D.measure ~config ~scale ~since:0.0 spec t in
  let m = W.machine t.Driver.w in
  (* A fiber failure ended the run before its timed region did: no
     bench line, but the reports still print. *)
  if Option.is_none t.Driver.crash then begin
    Printf.printf
      "%s on %s: %d procs, %d ops in %.6f simulated seconds = %.0f ops/s\n"
      name W.name res.Driver.nprocs res.Driver.ops res.Driver.elapsed
      res.Driver.throughput;
    if Option.is_some m then
      Printf.printf
        "engine: %d events, peak %d live fibers, %.2fs wall (%.0f sim_ops/s \
         host-side)\n"
        res.Driver.engine_events res.Driver.peak_fibers wall
        (if wall > 0.0 then float_of_int res.Driver.ops /. wall else 0.0);
    if r.verbose then begin
      print_endline "system-call mix:";
      Format.printf "%a@." Hare_stats.Opcount.pp res.Driver.syscalls
    end;
    if t.Driver.failures > 0 then
      Printf.eprintf "error: %s: %d worker(s) failed\n%!" name
        t.Driver.failures
  end;
  let reraise =
    Option.iter (fun (name, e) ->
        raise (Hare_sim.Engine.Fiber_failure (name, e)))
  in
  let rc =
    if Option.is_some t.Driver.crash || t.Driver.failures > 0 then 1 else 0
  in
  match m with
  | Some m when s.world = `Hare ->
      let secs = Machine.seconds m in
      let traced f () = match Machine.trace m with Some tr -> f tr | None -> 0 in
      (* Reports print in this order; each is a thunk so it runs only
         when requested. *)
      let reports =
        [
          ( r.robust,
            fun () ->
              Printf.printf "%s under plan %S: %.6f simulated seconds, %d RPCs\n"
                name s.plan secs (Machine.total_rpcs m);
              Option.iter
                (fun (c, period) -> O.print ~period ~seconds:secs c)
                overload;
              Table.print_counts ~headers:[ "robustness counter"; "count" ]
                (Hare_stats.Robust.to_list res.Driver.robust);
              Hare_stats.Latency.print res.Driver.latencies;
              0 );
          (r.perf, fun () -> report_perf config name m);
          ( r.trace <> None,
            traced
              (report_trace ~strict:r.strict
                 ~out:(Option.value r.trace ~default:"")
                 name m) );
          ( r.profile,
            fun () ->
              let head = Printf.sprintf "%s: %.6f simulated seconds" name secs in
              if Trace.print_profile head res.Driver.profile = 0L then 0 else 1 );
          ( config.Config.metrics_interval > 0,
            fun () ->
              Option.fold ~none:0
                ~some:(report_metrics ~series:r.series name m res)
                (Machine.metrics m) );
          ( r.blame,
            traced (fun tr ->
                Blame.print res.Driver.blame (Trace.retained tr);
                0) );
          ( r.ring,
            fun () ->
              Option.fold ~none:0 ~some:(report_ring m res) (Machine.place m) );
        ]
      in
      let rc =
        List.fold_left
          (fun rc (wanted, report) -> if wanted then max rc (report ()) else rc)
          rc reports
      in
      reraise t.Driver.crash;
      if r.check then begin
        let twin =
          HD.exec
            ~config:{ config with Config.check_enabled = false }
            ?nprocs ~scale (fst (fresh ()))
        in
        reraise twin.Driver.crash;
        report_check verdict ~twin:twin.Driver.w name m
      end;
      rc
  | _ ->
      reraise t.Driver.crash;
      rc

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
      else try Some [ Hare_workloads.All.find name ] with Not_found -> None
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
    | Some specs, Ok _ -> (
        (* Every workload's configuration is checked before the first
           one runs. *)
        let runs = List.map (fun spec -> (spec, instance s r spec)) specs in
        let refusal ((spec : Spec.t), (c, _, _)) =
          Option.map (( ^ ) (spec.Spec.name ^ ": ")) (problem s r spec c)
        in
        match List.find_map refusal runs with
        | Some msg -> refuse msg
        | None ->
            let verdict = Check.verdict () in
            let rc =
              List.fold_left
                (fun rc (_, run) -> max rc (run_one s r verdict run))
                0 runs
            in
            if r.check then max rc (Check.print_verdict ~verbose:r.verbose verdict)
            else rc)
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
    prerr_endline msg;
    2
  in
  (* Only what [--list] lists gets the hint. *)
  let bad_choice msg =
    bad_args (msg ^ " (hare_cli explore --list shows the choices)")
  in
  let strategy =
    match (replay, strategy) with
    | Some csv, _ -> (
        let ordinals =
          List.filter (( <> ) "") (String.split_on_char ',' csv)
        in
        match List.filter_map int_of_string_opt ordinals with
        | choices
          when List.length choices = List.length ordinals
               && List.for_all (fun o -> o >= 0) choices ->
            Ok (R.Replay choices)
        | _ -> Error ("bad --replay " ^ csv ^ ": expected choice ordinals"))
    | None, "dpor" -> Ok R.Dpor
    | None, "pct" -> Ok (R.Pct (Option.value seed ~default:1))
    | None, "rand" -> Ok (R.Rand (Option.value seed ~default:1))
    | None, "det" -> Ok R.Deterministic
    | None, s -> Error ("unknown strategy " ^ s ^ " (dpor, pct, rand, det)")
  in
  let unknown_mutation =
    match mutate with
    | Some m when not (List.exists (fun (n, _) -> String.equal n m) S.mutations)
      ->
        Some m
    | _ -> None
  in
  if list_only then begin
    print_endline "scenarios:";
    List.iter
      (fun sc -> Printf.printf "  %-8s %s\n" sc.S.sc_name sc.S.sc_doc)
      S.all;
    print_endline "mutations (--mutate):";
    List.iter (fun (m, _) -> Printf.printf "  %s\n" m) S.mutations;
    0
  end
  else
    match (S.find scenario, strategy, unknown_mutation) with
    | exception Not_found ->
        bad_choice (Printf.sprintf "unknown scenario %S" scenario)
    | _, Error msg, _ -> bad_args msg
    | _, _, Some m -> bad_choice ("unknown mutation " ^ m)
    | sc, Ok strategy, None -> (
        (* [R.explore] refuses a budget below 1 and a replayed ordinal
           that its tie does not have. *)
        match R.explore ~scenario:sc ?mutate ~strategy ~budget () with
        | exception Invalid_argument msg -> bad_args msg
        | st ->
            Printf.printf
              "%s strategy=%s%s: %d schedule(s), %d choice point(s), depth \
               %d, %d sleep-set prune(s)%s\n"
              sc.S.sc_name (R.strategy_name strategy)
              (match mutate with Some m -> " mutate=" ^ m | None -> "")
              st.R.schedules st.R.choice_points st.R.max_depth
              st.R.sleep_blocked
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
            else 1)

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
