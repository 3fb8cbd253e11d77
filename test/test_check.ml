(* Coherence sanitizer (static-analysis PR): every legitimate run must
   be violation-free, and seeded mutations (skip an invalidation, skip a
   write-back, drop a dircache invalidation) must each be caught by the
   named rule. That checking leaves the simulation untouched is
   test_obs's zero-perturbation matrix. *)

open Test_util
module Check = Hare_check.Check
module Sanity = Hare_stats.Sanity
module Client = Hare_client.Client
module Dircache = Hare_client.Dircache
module Server = Hare_server.Server
module Pcache = Hare_mem.Pcache

let checked_config ?(ncores = 4) ?(window = 1) ?(batch = 1)
    ?(extent = 1) ?pcache_lines ?plan () =
  let c =
    {
      (small_config ~ncores ()) with
      Config.check_enabled = true;
      rpc_window = window;
      batch_max = batch;
      alloc_extent = extent;
      seed = 42L;
    }
  in
  let c =
    match pcache_lines with
    | Some n -> { c with Config.pcache_lines = n }
    | None -> c
  in
  match plan with
  | None -> c
  | Some p -> Hare_experiments.Driver.with_fault_plan p c

let sanity m =
  match Machine.check m with
  | Some chk -> Check.stats chk
  | None -> Alcotest.fail "no checker attached"

let assert_clean name m =
  let s = sanity m in
  if Sanity.total_violations s > 0 then begin
    (match Machine.check m with
    | Some chk ->
        List.iter
          (fun v -> Format.eprintf "%a@." Check.pp_violation v)
          (Check.violations chk)
    | None -> ());
    Alcotest.failf "%s: %d sanitizer violation(s)" name
      (Sanity.total_violations s)
  end

(* ---------- legitimate runs are clean ----------------------------------- *)

let test_workloads_clean () =
  List.iter
    (fun (wname, has_data) ->
      let m = run_workload ~wname (checked_config ()) in
      assert_clean wname m;
      let s = sanity m in
      (* The checker actually watched something. *)
      Alcotest.(check bool) (wname ^ ": joins happened") true
        (Sanity.get s Sanity.hb_joins > 0);
      (* Metadata-only workloads move no data blocks, so only the
         data-writing ones are guaranteed shadow-line traffic. *)
      if has_data then
        Alcotest.(check bool) (wname ^ ": lines tracked") true
          (Sanity.get s Sanity.lines_tracked > 0))
    [
      ("creates", false);
      ("writes", true);
      ("renames", false);
      ("directories", false);
      ("mailbench", true);
      ("fsstress", true);
    ]

let test_fault_soaks_clean () =
  List.iter
    (fun (label, plan) ->
      let m = run_workload ~wname:"fsstress" (checked_config ~plan ()) in
      assert_clean label m)
    [
      ("lossy", "drop:fs:0.04;dup:fs:0.04;delay:fs:0.06:4000");
      ("crash", "crash:2@1000000+300000");
      ("stall", "stall:0@20000+30000");
    ]

let test_pipeline_soak_clean () =
  let m =
    run_workload ~wname:"fsstress"
      (checked_config ~window:8 ~batch:8 ~extent:8
         ~plan:"drop:fs:0.04;dup:fs:0.04;delay:fs:0.06:4000" ())
  in
  assert_clean "pipelined-lossy" m;
  let m =
    run_workload ~wname:"fsstress"
      (checked_config ~window:8 ~batch:8 ~extent:8
         ~plan:"crash:2@1000000+300000" ())
  in
  assert_clean "pipelined-crash" m

(* ---------- Pcache stats vs. shadow (satellite) ------------------------- *)

(* Collect each physical pcache once: under timeshare placement a client
   and a server share one cache. *)
let distinct_pcaches m =
  let caches =
    Array.to_list (Array.map Client.pcache (Machine.clients m))
    @ Array.to_list (Array.map Server.pcache (Machine.servers m))
  in
  List.fold_left
    (fun acc pc -> if List.memq pc acc then acc else pc :: acc)
    [] caches

let test_pcache_stats_match_shadow () =
  (* A pcache small enough that the write-heavy workload thrashes the
     LRU: every fill, hit, eviction, write-back and invalidation the
     real caches count must have been observed — exactly once — by the
     checker's shadow state. *)
  let m =
    run_workload ~wname:"writes" (checked_config ~pcache_lines:64 ())
  in
  let s = sanity m in
  let sum f = List.fold_left (fun acc pc -> acc + f (Pcache.stats pc)) 0 in
  let caches = distinct_pcaches m in
  Alcotest.(check int) "evictions match shadow"
    (sum (fun (st : Pcache.stats) -> st.evictions) caches)
    (Sanity.get s Sanity.cache_evictions);
  Alcotest.(check bool) "LRU actually thrashed" true
    (Sanity.get s Sanity.cache_evictions > 0);
  Alcotest.(check int) "writebacks match shadow"
    (sum (fun (st : Pcache.stats) -> st.writebacks) caches)
    (Sanity.get s Sanity.cache_writebacks);
  Alcotest.(check int) "invalidations match shadow"
    (sum (fun (st : Pcache.stats) -> st.invalidated) caches)
    (Sanity.get s Sanity.cache_invalidated);
  Alcotest.(check int) "hits match shadow"
    (sum (fun (st : Pcache.stats) -> st.hits) caches)
    (Sanity.get s Sanity.cache_hits);
  Alcotest.(check int) "fills match shadow"
    (sum (fun (st : Pcache.stats) -> st.misses) caches)
    (Sanity.get s Sanity.cache_fills);
  assert_clean "thrash" m

(* ---------- rule-level detection (unit) --------------------------------- *)

let count rule chk =
  List.length (List.filter (fun (v : Check.violation) -> v.rule = rule)
                 (Check.violations chk))

let test_rule_stale_read () =
  let chk = Check.create ~ncores:2 () in
  (* Core 1 caches the line; core 0 rewrites it and flushes; core 0 then
     messages core 1 (HB edge). Core 1 re-reading its old copy without a
     fill is now a stale read — and was NOT one before the edge. *)
  Check.cache_access chk ~core:1 ~key:7 ~write:false ~filled:true;
  Check.cache_access chk ~core:0 ~key:7 ~write:true ~filled:true;
  Check.cache_writeback chk ~core:0 ~key:7;
  Check.cache_access chk ~core:1 ~key:7 ~write:false ~filled:false;
  Alcotest.(check int) "unordered reread is legal (close-to-open)" 0
    (Check.total_violations chk);
  Check.join chk ~core:1 (Check.msg_stamp chk ~core:0);
  Check.cache_access chk ~core:1 ~key:7 ~write:false ~filled:false;
  Alcotest.(check int) "ordered stale reread fires" 1 (count Check.Stale_read chk)

let test_rule_write_race () =
  let chk = Check.create ~ncores:2 () in
  Check.cache_access chk ~core:0 ~key:3 ~write:true ~filled:true;
  Check.cache_access chk ~core:1 ~key:3 ~write:true ~filled:true;
  Alcotest.(check bool) "concurrent dirtying fires write-race" true
    (count Check.Write_race chk >= 1)

let test_rule_lost_write () =
  let chk = Check.create ~ncores:2 () in
  (* Core 0 dirties and flushes; core 1 — ordered after — writes back a
     copy based on the pre-flush version, clobbering core 0's data. *)
  Check.cache_access chk ~core:1 ~key:9 ~write:false ~filled:true;
  Check.cache_access chk ~core:0 ~key:9 ~write:true ~filled:true;
  Check.cache_writeback chk ~core:0 ~key:9;
  Check.join chk ~core:1 (Check.msg_stamp chk ~core:0);
  Check.cache_access chk ~core:1 ~key:9 ~write:true ~filled:false;
  Check.cache_writeback chk ~core:1 ~key:9;
  Alcotest.(check bool) "clobbering write-back fires lost-write" true
    (count Check.Lost_write chk >= 1)

let test_rule_missed_writeback () =
  let chk = Check.create ~ncores:2 () in
  (* Core 0 holds a dirty copy and (by messaging) is ordered before core
     1's use of the line; the protocol owed a write-back in between. *)
  Check.cache_access chk ~core:0 ~key:5 ~write:true ~filled:true;
  Check.join chk ~core:1 (Check.msg_stamp chk ~core:0);
  Check.cache_access chk ~core:1 ~key:5 ~write:false ~filled:true;
  Alcotest.(check int) "ordered dirty foreign copy fires missed-writeback" 1
    (count Check.Missed_writeback chk)

let test_rule_leaks () =
  let chk = Check.create ~ncores:2 () in
  Check.lint_exit chk ~core:0 ~fds:0 ~leases:0;
  Alcotest.(check int) "clean exit is clean" 0 (Check.total_violations chk);
  Check.lint_exit chk ~core:1 ~fds:2 ~leases:3;
  Alcotest.(check int) "fd leak fires" 1 (count Check.Fd_leak chk);
  Alcotest.(check int) "lease leak fires" 1 (count Check.Lease_leak chk)

(* ---------- seeded mutations (end-to-end detection power) --------------- *)

let rule_count m rule =
  match Machine.check m with
  | Some chk -> count rule chk
  | None -> Alcotest.fail "no checker attached"

let with_mutation flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

(* Init sits on [app_cores.(0)] and its first round-robin spawn lands
   there too; burn that slot so the next spawn goes to a different core
   (and hence a different client and pcache). *)
let register_nop m = Machine.register_program m "nop" (fun _ _ -> 0)

let spawn_remote p ~prog =
  let pid = Posix.spawn p ~prog:"nop" ~args:[] in
  ignore (Posix.waitpid p pid);
  Posix.spawn p ~prog ~args:[]

(* Another core rewrites a file this core has cached lines of: with the
   close-to-open invalidation mutation-skipped, the reopen must trip the
   open-inval lint and the reread of the stale resident copy the
   stale-read race rule. *)
let test_mutation_skip_open_inval () =
  with_mutation Client.mutate_skip_open_inval @@ fun () ->
  let config = checked_config () in
  let m = Machine.boot config in
  register_nop m;
  Machine.register_program m "rewriter" (fun p _args ->
      (* Overwrite in place (no truncate) so the same blocks change. *)
      let fd = Posix.openf p "/mut.dat" flags_rw in
      ignore (Posix.write p fd (String.make 4096 'b'));
      Posix.close p fd;
      0);
  let init, _ =
    Machine.spawn_init m ~name:"init" (fun p _ ->
        (* Leave clean resident lines of the file in this core's cache. *)
        let fd = Posix.creat p "/mut.dat" in
        ignore (Posix.write p fd (String.make 4096 'a'));
        Posix.close p fd;
        let pid = spawn_remote p ~prog:"rewriter" in
        if Posix.waitpid p pid <> 0 then 1
        else begin
          let fd = Posix.openf p "/mut.dat" flags_r in
          ignore (Posix.read_all p fd);
          Posix.close p fd;
          0
        end)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "run ok" (Some 0) (Machine.exit_status m init);
  Alcotest.(check bool) "open-inval lint fired" true
    (rule_count m Check.Open_inval > 0);
  Alcotest.(check bool) "stale-read race fired" true
    (rule_count m Check.Stale_read > 0)

let test_mutation_skip_writeback () =
  with_mutation Client.mutate_skip_writeback @@ fun () ->
  let m =
    run ~config:(checked_config ()) (fun _m p ->
        let fd = Posix.creat p "/wb.dat" in
        ignore (Posix.write p fd (String.make 4096 'x'));
        Posix.close p fd;
        0)
  in
  Alcotest.(check bool) "close-writeback lint fired" true
    (rule_count m Check.Close_writeback > 0)

(* A remote unlink invalidates a dircache entry this client cached; with
   the invalidation mutation-dropped, the next hit on the entry must trip
   the dircache-stale rule. *)
let test_mutation_drop_dircache_inval () =
  with_mutation Dircache.mutate_drop_inval @@ fun () ->
  let config = checked_config () in
  let m = Machine.boot config in
  register_nop m;
  Machine.register_program m "unlinker" (fun p _args ->
      Posix.unlink p "/d/f";
      0);
  let init, _ =
    Machine.spawn_init m ~name:"init" (fun p _ ->
        Posix.mkdir p "/d";
        let fd = Posix.creat p "/d/f" in
        Posix.close p fd;
        (* Populate this client's dircache (and the server's tracking). *)
        ignore (Posix.stat p "/d/f");
        let pid = spawn_remote p ~prog:"unlinker" in
        if Posix.waitpid p pid <> 0 then 1
        else begin
          (* The hit on the stale entry is the violation; the stat itself
             may then fail on the dead inode. *)
          (try ignore (Posix.stat p "/d/f")
           with Hare_proto.Errno.Error _ -> ());
          0
        end)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "run ok" (Some 0) (Machine.exit_status m init);
  Alcotest.(check bool) "invalidation was actually sent" true
    (Machine.total_invals m > 0);
  Alcotest.(check bool) "dircache-stale rule fired" true
    (rule_count m Check.Dircache_stale > 0)

(* Sanity: the named-rule report the CLI prints covers every rule and
   stays in sync with the counters. *)
let test_report_shape () =
  let chk = Check.create ~ncores:2 () in
  Check.lint_exit chk ~core:0 ~fds:1 ~leases:0;
  let report = Check.report chk in
  Alcotest.(check int) "nine rules" 9 (List.length report);
  Alcotest.(check (option int)) "fd-leak counted" (Some 1)
    (List.assoc_opt "fd-leak" report);
  Alcotest.(check int) "total matches" 1 (Check.total_violations chk)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "check.clean",
      [
        tc "all workloads violation-free" `Slow test_workloads_clean;
        tc "fault soaks violation-free" `Quick test_fault_soaks_clean;
        tc "pipelined soaks violation-free" `Quick test_pipeline_soak_clean;
      ] );
    ( "check.pcache-stats",
      [ tc "cache counters match shadow exactly" `Quick
          test_pcache_stats_match_shadow ] );
    ( "check.rules",
      [
        tc "stale-read needs the HB edge" `Quick test_rule_stale_read;
        tc "write-race on unordered dirtying" `Quick test_rule_write_race;
        tc "lost-write on clobbering write-back" `Quick test_rule_lost_write;
        tc "missed-writeback on ordered dirty copy" `Quick
          test_rule_missed_writeback;
        tc "fd/lease leaks at exit" `Quick test_rule_leaks;
        tc "report covers all rules" `Quick test_report_shape;
      ] );
    ( "check.mutations",
      [
        tc "skipped open invalidation detected" `Quick
          test_mutation_skip_open_inval;
        tc "skipped write-back detected" `Quick test_mutation_skip_writeback;
        tc "dropped dircache invalidation detected" `Quick
          test_mutation_drop_dircache_inval;
      ] );
  ]
