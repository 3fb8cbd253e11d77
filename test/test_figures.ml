(* Shape tests for the paper reproduction: cheap (8-core) versions of the
   claims EXPERIMENTS.md makes about each figure, so a regression in the
   protocol or cost model that flips a paper conclusion fails CI. *)

module Config = Hare_config.Config
module Driver = Hare_experiments.Driver
module Figures = Hare_experiments.Figures
module World = Hare_experiments.World
module All = Hare_workloads.All
module HD = Driver.Make (World.Hare_w)
module LD = Driver.Make (World.Linux_w)

let cfg ?(f = fun c -> c) ncores = f (Driver.default_config ~ncores)

let thr (r : Driver.result) = r.Driver.throughput

let test_fig10_distribution_helps_creates () =
  let on = HD.run ~config:(cfg 8) (All.find "creates") in
  let off =
    HD.run
      ~config:(cfg ~f:(fun c -> { c with Config.dir_distribution = false }) 8)
      (All.find "creates")
  in
  Alcotest.(check bool)
    (Printf.sprintf "distributed %.0f > centralized %.0f x1.5" (thr on) (thr off))
    true
    (thr on > 1.5 *. thr off)

let test_fig12_direct_access_helps_writes () =
  let on = HD.run ~config:(cfg 8) (All.find "writes") in
  let off =
    HD.run
      ~config:(cfg ~f:(fun c -> { c with Config.direct_access = false }) 8)
      (All.find "writes")
  in
  Alcotest.(check bool) "direct access >2x for writes" true
    (thr on > 2.0 *. thr off)

let test_fig13_dircache_helps_renames () =
  let on = HD.run ~config:(cfg 8) (All.find "renames") in
  let off =
    HD.run
      ~config:(cfg ~f:(fun c -> { c with Config.dir_cache = false }) 8)
      (All.find "renames")
  in
  Alcotest.(check bool) "directory cache >1.3x for renames" true
    (thr on > 1.3 *. thr off)

let test_fig8_linux_faster_on_one_core () =
  List.iter
    (fun bench ->
      let hare = HD.run ~config:(cfg 1) ~nprocs:1 (All.find bench) in
      let linux = LD.run ~config:(cfg 1) ~nprocs:1 (All.find bench) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: linux (%.0f) beats hare (%.0f) on 1 core" bench
           (thr linux) (thr hare))
        true
        (thr linux > thr hare))
    [ "creates"; "renames"; "mailbench" ]

let test_fig8_split_beats_timeshare_single_core () =
  let ts = HD.run ~config:(cfg 1) ~nprocs:1 (All.find "renames") in
  let split =
    HD.run
      ~config:(cfg ~f:(fun c -> { c with Config.placement = Config.Split 1 }) 2)
      ~nprocs:1 (All.find "renames")
  in
  Alcotest.(check bool) "dedicated server core faster" true (thr split > thr ts)

let test_fig15_crossover () =
  (* Hare out-scales Linux on shared-directory metadata; Linux out-scales
     Hare on raw writes. *)
  let speedup (runner : ?nprocs:int -> Config.t -> Hare_workloads.Spec.t -> Driver.result) bench =
    let one = runner ~nprocs:1 (cfg 1) (All.find bench) in
    let eight = runner (cfg 8) (All.find bench) in
    thr eight /. thr one
  in
  let hare_run ?nprocs config s = HD.run ~config ?nprocs s in
  let linux_run ?nprocs config s = LD.run ~config ?nprocs s in
  let hare_creates = speedup hare_run "creates" in
  let linux_creates = speedup linux_run "creates" in
  let hare_writes = speedup hare_run "writes" in
  let linux_writes = speedup linux_run "writes" in
  Alcotest.(check bool)
    (Printf.sprintf "creates: hare %.1fx > linux %.1fx" hare_creates
       linux_creates)
    true (hare_creates > linux_creates);
  Alcotest.(check bool)
    (Printf.sprintf "writes: linux %.1fx > hare %.1fx" linux_writes hare_writes)
    true (linux_writes > hare_writes)

let test_micro_calibration () =
  let single, split = Figures.micro_data Figures.quick in
  let close a b = Float.abs (a -. b) /. b < 0.15 in
  Alcotest.(check bool)
    (Printf.sprintf "timeshare rename %.3fus ~ 7.204us" single)
    true (close single 7.204);
  Alcotest.(check bool)
    (Printf.sprintf "split rename %.3fus ~ 4.171us" split)
    true (close split 4.171)

let test_fig5_mixes () =
  let data = Figures.fig5_data Figures.quick in
  let share bench op =
    match List.assoc_opt bench data with
    | None -> 0.0
    | Some shares -> ( match List.assoc_opt op shares with Some s -> s | None -> 0.0)
  in
  Alcotest.(check bool) "creates is open/close" true
    (share "creates" "open" > 0.45 && share "creates" "close" > 0.45);
  Alcotest.(check bool) "rm dense is unlink-heavy" true
    (share "rm dense" "unlink" > 0.5);
  Alcotest.(check bool) "pfind dense is stat-heavy" true
    (share "pfind dense" "stat" > 0.5);
  Alcotest.(check bool) "mailbench uses fsync+rename" true
    (share "mailbench" "fsync" > 0.1 && share "mailbench" "rename" > 0.1)

let test_ext_width_narrows_fanout () =
  (* Narrower distribution must reduce the RPC count of readdir-heavy
     work (each readdir contacts only the shard subset). *)
  let rpcs w =
    let config = { (cfg 8) with Config.dist_width = Some w } in
    let m = Hare.Machine.boot config in
    let api = World.Hare_w.api m in
    let counted = ref 0 in
    let init =
      World.Hare_w.spawn_init m ~name:"t" (fun p ->
          Hare.Posix.mkdir p ~dist:true "/d";
          for i = 1 to 10 do
            Hare.Posix.close p (Hare.Posix.creat p (Printf.sprintf "/d/f%d" i))
          done;
          let before =
            Array.fold_left
              (fun acc c -> acc + Hare_client.Client.rpc_count c)
              0 (Hare.Machine.clients m)
          in
          for _ = 1 to 5 do
            ignore (Hare.Posix.readdir p "/d")
          done;
          counted :=
            Array.fold_left
              (fun acc c -> acc + Hare_client.Client.rpc_count c)
              0 (Hare.Machine.clients m)
            - before;
          0)
    in
    Hare.Machine.run m;
    ignore (api, init);
    !counted
  in
  let narrow = rpcs 2 and wide = rpcs 8 in
  Alcotest.(check bool)
    (Printf.sprintf "width 2 (%d rpcs) < width 8 (%d rpcs)" narrow wide)
    true (narrow < wide)

let tc = Alcotest.test_case

(* Figure 4 accounts for the whole library: every lib/ directory sits
   in exactly one row. *)
let test_fig4_counts_every_lib_dir () =
  match Hare_stats.Sloc.repo_root () with
  | None -> Alcotest.fail "cannot locate the repository root"
  | Some root ->
      let lib = Filename.concat root "lib" in
      let on_disk =
        Sys.readdir lib |> Array.to_list
        |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
        |> List.map (fun d -> "lib/" ^ d)
        |> List.sort compare
      in
      Alcotest.(check (list string)) "each lib/ directory counted exactly once"
        on_disk
        (List.sort compare Figures.fig4_dirs)

(* Figure 4's per-module table splits the client and server rows: every
   source file of lib/client and lib/server sits in exactly one row, each
   extension row holds its module, and the rows add up to the two
   component rows. *)
let test_fig4_modules_partition_protocol () =
  match Hare_stats.Sloc.repo_root () with
  | None -> Alcotest.fail "cannot locate the repository root"
  | Some root ->
      let rows = Figures.fig4_modules root in
      let rec sources dir =
        Sys.readdir dir |> Array.to_list
        |> List.concat_map (fun name ->
               let path = Filename.concat dir name in
               if Sys.is_directory path then sources path
               else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
               then [ path ]
               else [])
      in
      let on_disk =
        List.concat_map (fun d -> sources (Filename.concat root d)) [ "lib/client"; "lib/server" ]
      in
      Alcotest.(check (list string)) "each source file in exactly one row"
        (List.sort compare on_disk)
        (List.sort compare (List.concat_map snd rows));
      List.iter
        (fun (name, files) ->
          Alcotest.(check bool) (name ^ " has sources") true (files <> []))
        rows;
      let sloc files = List.fold_left (fun a f -> a + Hare_stats.Sloc.count_file f) 0 files in
      Alcotest.(check int) "rows sum to Client Library + File System Server"
        (Hare_stats.Sloc.count_tree (Filename.concat root "lib/client")
        + Hare_stats.Sloc.count_tree (Filename.concat root "lib/server"))
        (List.fold_left (fun a (_, files) -> a + sloc files) 0 rows)

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "figures.shapes",
      [
        tc "fig10: distribution helps creates" `Quick
          test_fig10_distribution_helps_creates;
        tc "fig12: direct access helps writes" `Quick
          test_fig12_direct_access_helps_writes;
        tc "fig13: dircache helps renames" `Quick test_fig13_dircache_helps_renames;
        tc "fig8: linux faster on 1 core" `Quick test_fig8_linux_faster_on_one_core;
        tc "fig8: split beats timeshare" `Quick
          test_fig8_split_beats_timeshare_single_core;
        tc "fig15: crossover" `Quick test_fig15_crossover;
        tc "micro: rename calibration" `Quick test_micro_calibration;
        tc "fig5: op mixes" `Quick test_fig5_mixes;
        tc "ext: width narrows fan-out" `Quick test_ext_width_narrows_fanout;
        tc "fig4: every lib directory counted once" `Quick
          test_fig4_counts_every_lib_dir;
        tc "fig4: client and server files by module" `Quick
          test_fig4_modules_partition_protocol;
      ] );
  ]
