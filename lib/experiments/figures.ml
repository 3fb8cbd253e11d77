module Config = Hare_config.Config
module Spec = Hare_workloads.Spec
module All = Hare_workloads.All
module Table = Hare_stats.Table
module Opcount = Hare_stats.Opcount
module Summary = Hare_stats.Summary
module HD = Driver.Make (World.Hare_w)
module LD = Driver.Make (World.Linux_w)

type opts = { big : int; cores : int list; sweep : int list; scale : int }

let default =
  {
    big = 40;
    cores = [ 1; 2; 4; 8; 16; 24; 32; 40 ];
    sweep = [ 4; 8; 12; 16; 20; 24; 32 ];
    scale = 1;
  }

let quick = { big = 8; cores = [ 1; 2; 4; 8 ]; sweep = [ 2; 4 ]; scale = 1 }

let hare_cfg ?(placement = Config.Timeshare) ~ncores () =
  { (Driver.default_config ~ncores) with Config.placement }

let section title =
  Printf.printf "\n================ %s ================\n\n" title

(* ---------- Figure 4: SLOC --------------------------------------------- *)

let components =
  [
    ("Messaging", 1536, [ "lib/msg" ]);
    ("Syscall Interception", 2542, [ "lib/api"; "lib/core" ]);
    ("Client Library", 2607, [ "lib/client" ]);
    ("File System Server", 5960, [ "lib/server" ]);
    ("Scheduling", 930, [ "lib/sched"; "lib/proc" ]);
  ]

let substrate =
  [
    ("Simulated hardware (cores, caches, DRAM)", [ "lib/sim"; "lib/mem" ]);
    ("Protocol definitions", [ "lib/proto"; "lib/config" ]);
    ("Baselines (ramfs, UNFS)", [ "lib/baseline" ]);
    ("Workloads + experiments", [ "lib/workloads"; "lib/experiments" ]);
    ( "Observers (trace, check, metrics, explore)",
      [ "lib/trace"; "lib/check"; "lib/metrics"; "lib/explore" ] );
    ("Fault injection", [ "lib/fault" ]);
    ("Shard placement (consistent hashing)", [ "lib/place" ]);
    ("Statistics + reporting", [ "lib/stats" ]);
  ]

let fig4_dirs =
  List.concat_map (fun (_, _, dirs) -> dirs) components
  @ List.concat_map snd substrate

(* The client and server rows by module: each extension sits behind its
   own interface; whatever no extension claims is the paper's core. *)
let extensions =
  [
    ("Dedup (exactly-once retries)", "lib/server/dedup");
    ("Steal (block stealing)", "lib/server/steal");
    ("Admission (shedding, expiry, EMOVED)", "lib/server/admission");
    ("Migrate (shard hand-off, rebalancer)", "lib/server/migrate");
    ("Transport (retries, breakers, window)", "lib/client/transport");
  ]

let protocol_dirs = [ "lib/client"; "lib/server" ]

let fig4_modules root =
  let files =
    List.concat_map (fun d -> Hare_stats.Sloc.sources (Filename.concat root d)) protocol_dirs
  in
  let of_module m =
    List.filter (fun f -> Filename.remove_extension f = Filename.concat root m) files
  in
  let rows = List.map (fun (name, m) -> (name, of_module m)) extensions in
  let claimed = List.concat_map snd rows in
  ("Paper protocol core", List.filter (fun f -> not (List.mem f claimed)) files)
  :: rows

let print_fig4 () =
  section "Figure 4: SLOC breakdown for Hare components";
  match Hare_stats.Sloc.repo_root () with
  | None -> print_endline "(cannot locate repository root; skipping counts)"
  | Some root ->
      let count dirs =
        List.fold_left
          (fun acc d -> acc + Hare_stats.Sloc.count_tree (Filename.concat root d))
          0 dirs
      in
      let rows =
        List.map
          (fun (name, paper, dirs) ->
            [ name; string_of_int paper; string_of_int (count dirs) ])
          components
      in
      let total_paper =
        List.fold_left (fun a (_, p, _) -> a + p) 0 components
      in
      let total_ours =
        List.fold_left (fun a (_, _, d) -> a + count d) 0 components
      in
      Table.print
        ~headers:[ "Component"; "Paper SLOC"; "This repo SLOC" ]
        (rows @ [ [ "Total"; string_of_int total_paper; string_of_int total_ours ] ]);
      print_newline ();
      print_endline "Additional code with no paper counterpart:";
      Table.print ~headers:[ "Subsystem"; "SLOC" ]
        (List.map
           (fun (name, dirs) -> [ name; string_of_int (count dirs) ])
           substrate);
      print_endline "\nClient Library + File System Server by module:";
      let sloc files = List.fold_left (fun a f -> a + Hare_stats.Sloc.count_file f) 0 files in
      Table.print ~headers:[ "Module"; "SLOC" ]
        (List.map (fun (name, files) -> [ name; string_of_int (sloc files) ]) (fig4_modules root)
        @ [ [ "Total"; string_of_int (count protocol_dirs) ] ])

(* ---------- Figure 5: operation breakdown ------------------------------ *)

let fig5_columns =
  [ "open"; "close"; "read"; "write"; "lseek"; "stat"; "unlink"; "mkdir";
    "rmdir"; "rename"; "readdir"; "fsync"; "pipe" ]

let fig5_data opts =
  List.map
    (fun (spec : Spec.t) ->
      let ncores = min 8 opts.big in
      let r = HD.run ~config:(hare_cfg ~ncores ()) ~scale:opts.scale spec in
      let counts = r.Driver.syscalls in
      let total = max 1 (Opcount.total counts) in
      let shares =
        List.map
          (fun op ->
            (op, float_of_int (Opcount.get counts op) /. float_of_int total))
          fig5_columns
      in
      (spec.Spec.name, shares))
    All.specs

let print_fig5 opts =
  section "Figure 5: operation breakdown per benchmark (% of syscalls)";
  let data = fig5_data opts in
  let rows =
    List.map
      (fun (bench, shares) ->
        bench
        :: List.map (fun (_, s) -> Printf.sprintf "%.0f%%" (100.0 *. s)) shares)
      data
  in
  Table.print ~headers:("benchmark" :: fig5_columns) rows

(* ---------- Figure 6: scalability -------------------------------------- *)

(* benchmark -> (cores, speedup vs. 1 core) *)
let fig6_data opts =
  List.map
    (fun (spec : Spec.t) ->
      let runs =
        List.map
          (fun n ->
            let r =
              HD.run ~config:(hare_cfg ~ncores:n ()) ~nprocs:n ~scale:opts.scale
                spec
            in
            (n, r.Driver.throughput))
          opts.cores
      in
      let base =
        match runs with (1, t) :: _ -> t | _ -> snd (List.hd runs)
      in
      ( spec.Spec.name,
        List.map (fun (n, t) -> (n, if base > 0.0 then t /. base else 0.0)) runs
      ))
    All.parallel

let print_fig6 opts =
  section "Figure 6: speedup on Hare as cores are added (vs. 1 core, timeshare)";
  let data = fig6_data opts in
  let headers =
    "benchmark" :: List.map (fun n -> Printf.sprintf "%d" n) opts.cores
  in
  let rows =
    List.map
      (fun (bench, speedups) ->
        bench :: List.map (fun (_, s) -> Printf.sprintf "%.1fx" s) speedups)
      data
  in
  Table.print ~headers rows

(* ---------- Figure 7: split vs. timeshare ------------------------------ *)

(* (benchmark, half split, best split's server count, best split), in
   throughput normalized to timeshare *)
let fig7_data opts =
  let n = opts.big in
  List.map
    (fun (spec : Spec.t) ->
      let run ?placement () =
        (HD.run ~config:(hare_cfg ?placement ~ncores:n ()) ~scale:opts.scale spec)
          .Driver.throughput
      in
      let timeshare = run () in
      let split s = run ~placement:(Config.Split s) () in
      let half = split (max 1 (n / 2)) in
      let best_s, best =
        List.fold_left
          (fun (bs, b) s ->
            let t = split s in
            if t > b then (s, t) else (bs, b))
          (max 1 (n / 2), half)
          (List.filter (fun s -> s >= 1 && s < n) opts.sweep)
      in
      let norm t = if timeshare > 0.0 then t /. timeshare else 0.0 in
      (spec.Spec.name, norm half, best_s, norm best))
    All.parallel

let print_fig7 opts =
  section
    (Printf.sprintf
       "Figure 7: split vs. timeshare at %d cores (normalized to timeshare)"
       opts.big);
  Table.print
    ~headers:[ "benchmark"; "timeshare"; "half split"; "best split" ]
    (List.map
       (fun (bench, half, best_s, best) ->
         [
           bench;
           "1.00x";
           Printf.sprintf "%.2fx" half;
           Printf.sprintf "%.2fx (%d srv)" best best_s;
         ])
       (List.sort compare (fig7_data opts)))

(* ---------- Figure 8: single-core vs. baselines ------------------------ *)

(* (benchmark, hare-timeshare runtime seconds, then throughput normalized
   to hare-timeshare for: hare timeshare (=1), hare 2-core, linux ramfs,
   unfs) *)
let fig8_data opts =
  List.map
    (fun (spec : Spec.t) ->
      let hare1 =
        HD.run ~config:(hare_cfg ~ncores:1 ()) ~nprocs:1 ~scale:opts.scale spec
      in
      let hare2 =
        HD.run
          ~config:(hare_cfg ~placement:(Config.Split 1) ~ncores:2 ())
          ~nprocs:1 ~scale:opts.scale spec
      in
      let linux1 =
        LD.run ~config:(Driver.default_config ~ncores:1) ~nprocs:1
          ~scale:opts.scale spec
      in
      let unfs =
        HD.run
          ~config:(World.unfs_config (Driver.default_config ~ncores:2))
          ~nprocs:1 ~scale:opts.scale spec
      in
      let base = hare1.Driver.throughput in
      let norm (r : Driver.result) =
        if base > 0.0 then r.Driver.throughput /. base else 0.0
      in
      ( spec.Spec.name,
        hare1.Driver.elapsed,
        1.0,
        norm hare2,
        norm linux1,
        norm unfs ))
    All.specs

let print_fig8 opts =
  section
    "Figure 8: single-core throughput, normalized to Hare timeshare";
  let rows =
    List.map
      (fun (bench, secs, ts, h2, lx, un) ->
        [
          bench;
          Table.fmt_seconds secs;
          Table.fmt_factor ts;
          Table.fmt_factor h2;
          Table.fmt_factor lx;
          Table.fmt_factor un;
        ])
      (fig8_data opts)
  in
  Table.print
    ~headers:
      [
        "benchmark";
        "hare runtime";
        "hare timeshare";
        "hare 2-core";
        "linux ramfs";
        "linux unfs";
      ]
    rows

(* ---------- Figures 9-14: technique ablations -------------------------- *)

let techniques =
  List.filter_map
    (fun (k : Config.knob) ->
      match (k.Config.technique, k.Config.setting) with
      | Some label, Config.Switch off -> Some (label, off)
      | _ -> None)
    Config.knobs

(* technique -> benchmark -> throughput(enabled)/throughput(disabled), all
   at [opts.big] cores (Figures 10-14) *)
let technique_ratios opts =
  let base_cfg = hare_cfg ~ncores:opts.big () in
  let with_results =
    List.map
      (fun (spec : Spec.t) ->
        (spec, HD.run ~config:base_cfg ~scale:opts.scale spec))
      All.parallel
  in
  List.map
    (fun (tech, disable) ->
      let ratios =
        List.map
          (fun ((spec : Spec.t), (on : Driver.result)) ->
            let off =
              HD.run ~config:(disable base_cfg) ~scale:opts.scale spec
            in
            let ratio =
              if off.Driver.throughput > 0.0 then
                on.Driver.throughput /. off.Driver.throughput
              else 0.0
            in
            (spec.Spec.name, ratio))
          with_results
      in
      (tech, ratios))
    techniques

let print_techniques opts =
  let data = technique_ratios opts in
  List.iteri
    (fun i (tech, ratios) ->
      section
        (Printf.sprintf
           "Figure %d: throughput with %s (normalized to without, %d cores)"
           (10 + i) tech opts.big);
      Table.print ~headers:[ "benchmark"; "speedup from technique" ]
        (List.map
           (fun (b, r) -> [ b; Table.fmt_factor r ])
           ratios))
    data;
  section "Figure 9: relative improvement per technique (all benchmarks)";
  let rows =
    List.map
      (fun (tech, ratios) ->
        let s = Summary.of_list (List.map snd ratios) in
        [
          tech;
          Table.fmt_factor s.Summary.min;
          Table.fmt_factor s.Summary.avg;
          Table.fmt_factor s.Summary.median;
          Table.fmt_factor s.Summary.max;
        ])
      data
  in
  Table.print ~headers:[ "Technique"; "Min"; "Avg"; "Median"; "Max" ] rows

(* ---------- Figure 15: Hare vs. Linux ---------------------------------- *)

(* (benchmark, hare speedup, linux speedup, hare runtime s, linux runtime s) *)
let fig15_data opts =
  List.map
    (fun (spec : Spec.t) ->
      let h1 =
        HD.run ~config:(hare_cfg ~ncores:1 ()) ~nprocs:1 ~scale:opts.scale spec
      in
      let hN =
        HD.run ~config:(hare_cfg ~ncores:opts.big ()) ~scale:opts.scale spec
      in
      let l1 =
        LD.run ~config:(Driver.default_config ~ncores:1) ~nprocs:1
          ~scale:opts.scale spec
      in
      let lN =
        LD.run
          ~config:(Driver.default_config ~ncores:opts.big)
          ~scale:opts.scale spec
      in
      let speedup a b =
        if a > 0.0 then b /. a else 0.0
      in
      ( spec.Spec.name,
        speedup h1.Driver.throughput hN.Driver.throughput,
        speedup l1.Driver.throughput lN.Driver.throughput,
        hN.Driver.elapsed,
        lN.Driver.elapsed ))
    All.fig15

let print_fig15 opts =
  section
    (Printf.sprintf "Figure 15: speedup at %d cores, Hare vs. Linux" opts.big);
  let rows =
    List.map
      (fun (bench, hs, ls, ht, lt) ->
        [
          bench;
          Printf.sprintf "%.1fx" hs;
          Printf.sprintf "%.1fx" ls;
          Table.fmt_seconds ht;
          Table.fmt_seconds lt;
        ])
      (fig15_data opts)
  in
  Table.print
    ~headers:
      [ "benchmark"; "hare speedup"; "linux speedup"; "hare time"; "linux time" ]
    rows

(* ---------- §5.3.3 microbenchmark: rename latency ----------------------- *)

let rename_latency_us ~config ~scale =
  let spec = All.find "renames" in
  let r = HD.run ~config ~nprocs:1 ~scale spec in
  r.Driver.elapsed /. float_of_int r.Driver.ops *. 1e6

let micro_data opts =
  let single = rename_latency_us ~config:(hare_cfg ~ncores:1 ()) ~scale:opts.scale in
  let split =
    rename_latency_us
      ~config:(hare_cfg ~placement:(Config.Split 1) ~ncores:2 ())
      ~scale:opts.scale
  in
  (single, split)

let print_micro opts =
  section "Microbenchmark (§5.3.3): rename() latency";
  let single, split = micro_data opts in
  Table.print
    ~headers:[ "configuration"; "paper"; "this repo" ]
    [
      [ "same core (timeshare)"; "7.204 us"; Printf.sprintf "%.3f us" single ];
      [ "separate cores (split)"; "4.171 us"; Printf.sprintf "%.3f us" split ];
    ]

(* ---------- extensions (beyond the paper) ------------------------------ *)

let width_benches = [ "creates"; "pfind dense"; "rm dense"; "mailbench" ]

(* §6's "distribute a directory over a subset of cores": benchmark ->
   (width, throughput normalized to full-width distribution) at
   [opts.big] cores *)
let width_sweep opts =
  let widths =
    List.sort_uniq compare
      (List.filter (fun w -> w <= opts.big) [ 2; 4; 8; 16; opts.big ])
  in
  List.map
    (fun bench ->
      let spec = All.find bench in
      let run w =
        HD.run
          ~config:
            { (hare_cfg ~ncores:opts.big ()) with Config.dist_width = Some w }
          ~scale:opts.scale spec
      in
      let full = run opts.big in
      ( bench,
        List.map
          (fun w ->
            let r = run w in
            ( w,
              if full.Driver.throughput > 0.0 then
                r.Driver.throughput /. full.Driver.throughput
              else 0.0 ))
          widths ))
    width_benches

let print_extensions opts =
  section
    (Printf.sprintf
       "Extension (§6): partial directory distribution at %d cores         (throughput vs. full-width)"
       opts.big);
  let data = width_sweep opts in
  let widths = List.map fst (snd (List.hd data)) in
  Table.print
    ~headers:("benchmark" :: List.map (fun w -> Printf.sprintf "w=%d" w) widths)
    (List.map
       (fun (bench, points) ->
         bench :: List.map (fun (_, v) -> Table.fmt_factor v) points)
       data);
  section "Extension (§3.2): block stealing between server partitions";
  (* Starve one partition: a single client writes a 30-block file while
     every server owns only 16 blocks of buffer cache. *)
  let outcome stealing =
    let config =
      {
        (hare_cfg ~ncores:4 ()) with
        Config.buffer_cache_blocks = 64;
        block_stealing = stealing;
      }
    in
    let m = Hare.Machine.boot config in
    let init, _ =
      Hare.Machine.spawn_init m ~name:"steal-demo" (fun p _ ->
          let fd = Hare.Posix.creat p "/big" in
          let chunk = String.make 4096 'S' in
          (try
             for _ = 1 to 30 do
               ignore (Hare.Posix.write p fd chunk)
             done
           with Hare_proto.Errno.Error (Hare_proto.Errno.ENOSPC, _) ->
             Hare.Posix.exit p 28);
          Hare.Posix.close p fd;
          0)
    in
    Hare.Machine.run m;
    let stolen =
      Array.fold_left
        (fun acc s -> acc + Hare_server.Server.blocks_stolen s)
        0 (Hare.Machine.servers m)
    in
    match Hare.Machine.exit_status m init with
    | Some 0 -> Printf.sprintf "file written (%d blocks stolen)" stolen
    | Some 28 -> "fails with ENOSPC"
    | _ -> "unexpected failure"
  in
  Table.print
    ~headers:[ "configuration"; "16-block partitions, 30-block file" ]
    [
      [ "stealing off (paper prototype)"; outcome false ];
      [ "stealing on (extension)"; outcome true ];
    ]

let print_all opts =
  print_fig4 ();
  print_fig5 opts;
  print_fig6 opts;
  print_fig7 opts;
  print_fig8 opts;
  print_techniques opts;
  print_fig15 opts;
  print_micro opts;
  print_extensions opts
