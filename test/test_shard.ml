(* Consistent-hash sharding PR: the [Sharded] placement must be
   bit-identical to [Split] while the ring membership is stable, live
   rebalancing (server add / remove mid-workload) must leave the file
   system exactly as a static ring would, migration must compose with
   the PR-1 fault plans, and every sharded run must stay
   sanitizer-clean. *)

open Test_util
module Place = Hare_place.Place
module Check = Hare_check.Check
module Sanity = Hare_stats.Sanity
module Opcount = Hare_stats.Opcount

(* ---------- configs ----------------------------------------------------- *)

let sharded_config ?(ncores = 8) ?(servers = 2) ?(vnodes = 32) ?(plan = "")
    ?(check = false) ?fault () =
  let c =
    {
      (small_config ~ncores
         ~placement:(Config.Sharded { servers; vnodes })
         ())
      with
      Config.shard_plan = plan;
      check_enabled = check;
      seed = 42L;
    }
  in
  match fault with
  | None -> c
  | Some f -> Hare_experiments.Driver.with_fault_plan f c

(* Run one paper workload to completion, optionally snapshotting the
   final tree (canonical sorted path list, see [Test_fault.snapshot]);
   return the machine and the tree. *)
let run_workload ?wname ?(snap = false) ?nprocs config =
  let tree = ref [] in
  let after _ p ~failures =
    if failures = 0 && snap then tree := List.rev (Test_fault.snapshot p "/" [])
  in
  let m = run_workload ?wname ?nprocs ~after config in
  (m, !tree)

let ring m =
  match Machine.place m with
  | Some p -> p
  | None -> Alcotest.fail "sharded machine has no placement ring"

let assert_clean name m =
  match Machine.check m with
  | None -> Alcotest.fail (name ^ ": sanitizer not attached")
  | Some chk ->
      let s = Check.stats chk in
      if Sanity.total_violations s > 0 then begin
        List.iter
          (fun v -> Format.eprintf "%a@." Check.pp_violation v)
          (Check.violations chk);
        Alcotest.failf "%s: %d sanitizer violation(s)" name
          (Sanity.total_violations s)
      end

(* ---------- Config.validate --------------------------------------------- *)

let valid c = Alcotest.(check (result unit string)) "accepted" (Ok ()) c

let invalid frag c =
  match c with
  | Ok () -> Alcotest.failf "expected rejection mentioning %S" frag
  | Error msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg frag)
        true (contains msg frag)

let test_validate () =
  let cfg ?(servers = 2) ?(vnodes = 32) ?(plan = "") ?(ncores = 8) () =
    Config.validate
      {
        (small_config ~ncores
           ~placement:(Config.Sharded { servers; vnodes })
           ())
        with
        Config.shard_plan = plan;
      }
  in
  valid (cfg ());
  valid (cfg ~plan:"add@1000" ());
  valid (cfg ~servers:3 ~plan:"add@1000;remove:1@2000" ());
  invalid "positive" (cfg ~servers:0 ());
  invalid "vnodes" (cfg ~vnodes:0 ());
  (* servers + planned adds must still leave an application core *)
  invalid "application core"
    (cfg ~ncores:4 ~servers:3 ~plan:"add@1000" ());
  invalid "outside the ring" (cfg ~plan:"remove:9@1000" ());
  invalid "twice" (cfg ~servers:3 ~plan:"remove:1@10;remove:1@20" ());
  invalid "at least one server"
    (cfg ~servers:2 ~plan:"remove:0@10;remove:1@20" ());
  (* a plan without the Sharded placement is meaningless *)
  invalid "Sharded"
    (Config.validate
       {
         (small_config ~ncores:8 ~placement:(Config.Split 2) ()) with
         Config.shard_plan = "add@1000";
       });
  (* unparsable plans are caught at validation, not at boot *)
  (match cfg ~plan:"bogus" () with
  | Ok () -> Alcotest.fail "nonsense plan accepted"
  | Error _ -> ())

(* ---------- Place units ------------------------------------------------- *)

let test_parse_plan () =
  (match Place.parse_plan "add@1000;remove:2@3000" with
  | Ok [ Place.Add { at = a }; Place.Remove { sid = 2; at = b } ] ->
      Alcotest.(check int64) "add at" 1000L a;
      Alcotest.(check int64) "remove at" 3000L b
  | Ok evs -> Alcotest.failf "wrong events (%d)" (List.length evs)
  | Error e -> Alcotest.fail e);
  (match Place.parse_plan "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty plan not empty"
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "count_adds" 2
    (Place.count_adds "add@1;add@2;remove:0@3");
  Alcotest.(check int) "count_adds on garbage" 0 (Place.count_adds "bogus");
  List.iter
    (fun bad ->
      match Place.parse_plan bad with
      | Ok _ -> Alcotest.failf "plan %S accepted" bad
      | Error _ -> ())
    [ "bogus"; "add"; "remove:x@10"; "remove:1"; "add@x" ]

let test_place_identity () =
  let p = Place.create ~nhomes:4 ~vnodes:8 ~events:[] in
  Alcotest.(check bool) "static ring is not migratory" false
    (Place.migratory p);
  Alcotest.(check int) "no spares" 4 (Place.nphys p);
  Alcotest.(check int) "epoch 0" 0 (Place.epoch p);
  for h = 0 to 3 do
    Alcotest.(check int) "identity route" h (Place.phys p h)
  done

let test_place_rebalance () =
  let p = Place.create ~nhomes:8 ~vnodes:16 ~events:[ Place.Add { at = 0L } ] in
  Alcotest.(check bool) "planned ring is migratory" true (Place.migratory p);
  Alcotest.(check int) "one spare booted" 9 (Place.nphys p);
  Alcotest.(check bool) "spare starts idle" false (Place.active p 8);
  Place.activate p 8;
  let moved = List.sort compare (Place.plan_add p 8) in
  Alcotest.(check bool) "an add is never a no-op" true (moved <> []);
  Alcotest.(check bool) "moves only real homes" true
    (List.for_all (fun h -> h >= 0 && h < 8) moved);
  List.iter (fun h -> Place.set_route p ~home:h ~dst:8) moved;
  Alcotest.(check (list int)) "homes_of tracks the routes" moved
    (List.sort compare (Place.homes_of p 8));
  (* minimal disruption: every other home keeps its identity route *)
  List.iter
    (fun h ->
      if not (List.mem h moved) then
        Alcotest.(check int) "untouched home stays put" h (Place.phys p h))
    (List.init 8 Fun.id);
  Place.commit p;
  Alcotest.(check int) "epoch bumped" 1 (Place.epoch p);
  (* retiring the spare drains exactly the homes it holds, each onto a
     still-active server *)
  Place.deactivate p 8;
  let back = Place.plan_remove p 8 in
  Alcotest.(check (list int)) "remove drains exactly its homes" moved
    (List.sort compare (List.map fst back));
  List.iter
    (fun (_, dst) ->
      Alcotest.(check bool) "destination active" true
        (dst < 8 && Place.active p dst))
    back

(* ---------- bit-identity (acceptance criterion) ------------------------- *)

(* A membership-stable Sharded ring must be indistinguishable from the
   equivalent Split configuration: same seed => same final clock, same
   op mix, same RPC and invalidation counts, cycle for cycle. *)
let test_split_identical () =
  let base placement =
    { (small_config ~ncores:8 ~placement ()) with Config.seed = 7L }
  in
  let msplit, _ = run_workload (base (Config.Split 2)) in
  let mshard, _ =
    run_workload (base (Config.Sharded { servers = 2; vnodes = 32 }))
  in
  Alcotest.(check int64) "same final clock" (Machine.now msplit)
    (Machine.now mshard);
  Alcotest.(check (list (pair string int)))
    "same syscall mix"
    (Opcount.to_list (Machine.total_syscalls msplit))
    (Opcount.to_list (Machine.total_syscalls mshard));
  Alcotest.(check (list (pair string int)))
    "same server op mix"
    (Opcount.to_list (Machine.total_server_ops msplit))
    (Opcount.to_list (Machine.total_server_ops mshard));
  Alcotest.(check int) "same rpc count" (Machine.total_rpcs msplit)
    (Machine.total_rpcs mshard);
  Alcotest.(check int) "same invalidations" (Machine.total_invals msplit)
    (Machine.total_invals mshard);
  Alcotest.(check int) "no EMOVED traffic on a stable ring" 0
    (Machine.total_moved_rejects mshard + Machine.total_moved_retries mshard)

(* ---------- migration vs. the static oracle ----------------------------- *)

(* The fault-free, membership-stable tree each migration case must
   reproduce exactly (same workload, same seed, no plan). An add plan
   boots its spare on what would otherwise be an application core, so
   every compared run pins the worker count to the smallest app-core
   count across the cases (5 of 8 cores with one spare). *)
let oracle_nprocs = 5

let static_oracle =
  lazy (snd (run_workload ~snap:true ~nprocs:oracle_nprocs (sharded_config ())))

let check_tree name tree =
  Alcotest.(check (list string))
    (name ^ ": tree matches the static oracle")
    (Lazy.force static_oracle) tree

let test_migrate_add () =
  let m, tree =
    run_workload ~snap:true ~nprocs:oracle_nprocs
      (sharded_config ~plan:"add@200000" ())
  in
  check_tree "add" tree;
  let p = ring m in
  Alcotest.(check bool) "a home actually moved" true (Place.migrations p >= 1);
  Alcotest.(check int) "no migration aborted" 0 (Place.aborted p);
  Alcotest.(check int) "membership change committed" 1 (Place.epoch p)

let test_migrate_remove () =
  let m, tree =
    run_workload ~snap:true ~nprocs:oracle_nprocs
      (sharded_config ~servers:3 ~plan:"remove:1@200000" ())
  in
  check_tree "remove" tree;
  let p = ring m in
  Alcotest.(check bool) "drained homes moved" true (Place.migrations p >= 1);
  Alcotest.(check bool) "server 1 retired" false (Place.active p 1);
  Alcotest.(check (list int)) "server 1 hosts nothing" []
    (Place.homes_of p 1)

(* ---------- migration under PR-1 fault plans ----------------------------- *)

let test_migrate_under_drop_dup () =
  let m, tree =
    run_workload ~snap:true ~nprocs:oracle_nprocs
      (sharded_config ~plan:"add@200000"
         ~fault:"drop:fs:0.05; dup:fs:0.02" ())
  in
  check_tree "drop+dup" tree;
  Alcotest.(check bool) "migration still happened" true
    (Place.migrations (ring m) >= 1)

let test_migrate_under_crash () =
  (* crash/restart one original server while the plan later migrates a
     home onto the fresh spare: recovery and rebalancing must compose *)
  let m, tree =
    run_workload ~snap:true ~nprocs:oracle_nprocs
      (sharded_config ~plan:"add@200000" ~fault:"crash:0@80000+60000" ())
  in
  check_tree "crash" tree;
  Alcotest.(check bool) "migration still happened" true
    (Place.migrations (ring m) >= 1)

(* ---------- sanitizer-clean sharded runs --------------------------------- *)

let test_sharded_clean_static () =
  let m, _ = run_workload (sharded_config ~check:true ()) in
  assert_clean "static sharded" m

let test_sharded_clean_migrating () =
  (* one add and one remove mid-run: the spare takes a home at 200k and
     gives it back when retired at 500k *)
  let m, tree =
    run_workload ~snap:true ~nprocs:oracle_nprocs
      (sharded_config ~check:true ~plan:"add@200000;remove:2@500000" ())
  in
  assert_clean "migrating sharded" m;
  check_tree "add+remove" tree;
  let p = ring m in
  Alcotest.(check bool) "both changes migrated homes" true
    (Place.migrations p >= 2);
  Alcotest.(check int) "both changes committed" 2 (Place.epoch p)

(* ---------- EMOVED chase vs. an open circuit breaker -------------------- *)

(* A bounce chase must bypass the breaker's fast-fail: EMOVED means the
   shard *moved*, not that the destination is sick, so the re-resolved
   resend goes out even while the destination's breaker is open (the
   reply then closes it — any delivered reply proves the server alive).
   The race: probers' stats are admitted just after the route flip,
   while the destination has not yet installed the shard, so they bounce
   and chase; a helper then trips every prober client's breaker for the
   destination while those chases are mid-flight. A regression that
   re-checked admission on the resend would fast-fail the chase into
   EIO, failing the probers and the counters below. *)
let test_moved_chase_bypasses_breaker () =
  (* Late enough that setup (16 creates, 17 spawns) has finished and
     every prober is parked on its own core waiting for the flip. *)
  let flip = 1_200_000L in
  let nfiles = 16 in
  let config =
    {
      (* 18 app cores: every prober gets its own core, so all second
         stats enter at the same simulated instant. *)
      (sharded_config ~ncores:21 ~plan:"add@1200000" ~check:true ()) with
      Config.rpc_deadline = 25_000;
      rpc_retries = 12;
      breaker_threshold = 1;
    }
  in
  let m = Machine.boot config in
  let path i = Printf.sprintf "/mv/f%d" i in
  Machine.register_program m "prober" (fun p args ->
      let i = int_of_string (List.hd args) in
      (* Warm the dircache well before the flip so the post-flip stat is
         a single direct RPC entering exactly at its wake time. The
         warm-ups are staggered: sixteen simultaneous lookups of the
         same parent would queue past the RPC deadline and trip real
         give-ups before the part of the run under test. *)
      Posix.sleep_until p (Int64.of_int (1_000_000 + (5_000 * i)));
      ignore (Posix.stat p (path i));
      Posix.sleep_until p (Int64.add flip 50L);
      match (Posix.stat p (path i)).Hare_proto.Types.a_size with
      | 7 -> 0
      | _ -> 1
      | exception e ->
          (* Printed only on regression, to name the errno that killed
             the chase. *)
          Printf.eprintf "prober %d: %s\n%!" i (Printexc.to_string e);
          2);
  Machine.register_program m "tripper" (fun p _ ->
      (* After every prober's stat is in flight, before the first chase
         resend completes: force the destination's breaker open on every
         client. The rebalancing coordinator is unaffected (it calls the
         endpoints directly, not through a client). *)
      Posix.sleep_until p (Int64.add flip 300L);
      let dst = Place.nhomes (ring m) in
      Array.iter
        (fun c -> Hare_client.Client.trip_breaker c dst)
        (Machine.clients m);
      0);
  let init, _ =
    Machine.spawn_init m ~name:"moved-vs-breaker" (fun p _ ->
        Posix.mkdir p "/mv";
        for i = 0 to nfiles - 1 do
          let fd = Posix.openf p (path i) Hare_proto.Types.flags_w in
          Posix.write_all p fd "payload";
          Posix.close p fd
        done;
        let pids =
          List.init nfiles (fun i ->
              Posix.spawn p ~prog:"prober" ~args:[ string_of_int i ])
          @ [ Posix.spawn p ~prog:"tripper" ~args:[] ]
        in
        List.fold_left
          (fun acc pid -> if Posix.waitpid p pid <> 0 then acc + 1 else acc)
          0 pids)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int))
    "every prober's stat succeeded despite the open breaker" (Some 0)
    (Machine.exit_status m init);
  Alcotest.(check bool) "a home actually moved" true
    (Place.migrations (ring m) >= 1);
  Alcotest.(check bool) "at least one stat bounced and chased" true
    (Machine.total_moved_retries m >= 1);
  let r = Machine.robustness m in
  Alcotest.(check bool) "the tripped breakers really opened" true
    (Hare_stats.Robust.(get r breaker_opens) >= 1);
  Alcotest.(check int) "no chase was fast-failed" 0
    Hare_stats.Robust.(get r fast_fails);
  Alcotest.(check int) "no request gave up" 0 Hare_stats.Robust.(get r giveups);
  assert_clean "moved-vs-breaker" m

(* The deferred twin: under the retry protocol with an eight-deep
   window, a regular file's close is a deferred send, awaited only when
   the window drains (here at process exit). Probers open their files
   before the route flip and close them just after it, so a close whose
   home moved bounces at the old owner and is chased — under the same
   tag, along the one attempt ladder — to the new one. Every close must
   land: no deferred error, no give-up, no descriptor leaked. *)
let test_moved_chase_deferred_close () =
  let flip = 1_200_000L in
  let nfiles = 16 in
  let config =
    {
      (sharded_config ~ncores:21 ~plan:"add@1200000" ~check:true ()) with
      Config.rpc_deadline = 25_000;
      rpc_retries = 12;
      rpc_window = 8;
    }
  in
  let m = Machine.boot config in
  let path i = Printf.sprintf "/mv/f%d" i in
  Machine.register_program m "prober" (fun p args ->
      let i = int_of_string (List.hd args) in
      (* Staggered opens, as in the stat twin above, so the setup traffic
         never queues past the RPC deadline. *)
      Posix.sleep_until p (Int64.of_int (1_000_000 + (5_000 * i)));
      let fd = Posix.openf p (path i) Hare_proto.Types.flags_r in
      Posix.sleep_until p (Int64.add flip 50L);
      Posix.close p fd;
      0);
  let init, _ =
    Machine.spawn_init m ~name:"moved-deferred-close" (fun p _ ->
        Posix.mkdir p "/mv";
        for i = 0 to nfiles - 1 do
          let fd = Posix.openf p (path i) Hare_proto.Types.flags_w in
          Posix.write_all p fd "payload";
          Posix.close p fd
        done;
        let pids =
          List.init nfiles (fun i ->
              Posix.spawn p ~prog:"prober" ~args:[ string_of_int i ])
        in
        List.fold_left
          (fun acc pid -> if Posix.waitpid p pid <> 0 then acc + 1 else acc)
          0 pids)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "every prober exited 0" (Some 0)
    (Machine.exit_status m init);
  Alcotest.(check bool) "a home actually moved" true
    (Place.migrations (ring m) >= 1);
  let perf = Machine.perf m in
  Alcotest.(check bool) "the closes were deferred" true
    (Hare_stats.Perf.(get perf deferred) >= nfiles);
  Alcotest.(check int) "every deferred close landed" 0
    Hare_stats.Perf.(get perf deferred_errors);
  Alcotest.(check bool) "at least one close bounced and chased" true
    (Machine.total_moved_retries m >= 1);
  Alcotest.(check int) "no request gave up" 0
    Hare_stats.Robust.(get (Machine.robustness m) giveups);
  assert_clean "moved-deferred-close" m

(* ---------- suites ------------------------------------------------------- *)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "shard.config",
      [ tc "validate accepts/rejects sharded configs" `Quick test_validate ] );
    ( "shard.place",
      [
        tc "plan grammar" `Quick test_parse_plan;
        tc "stable ring is the identity" `Quick test_place_identity;
        tc "add/remove move minimal homes" `Quick test_place_rebalance;
      ] );
    ( "shard.identity",
      [ tc "stable ring bit-identical to Split" `Quick test_split_identical ]
    );
    ( "shard.migration",
      [
        tc "server add mid-workload matches oracle" `Quick test_migrate_add;
        tc "server remove mid-workload matches oracle" `Quick
          test_migrate_remove;
        tc "migration under drop+dup faults" `Quick test_migrate_under_drop_dup;
        tc "migration under crash/restart" `Quick test_migrate_under_crash;
        tc "EMOVED chase bypasses an open breaker" `Quick
          test_moved_chase_bypasses_breaker;
        tc "EMOVED chase of a deferred close" `Quick
          test_moved_chase_deferred_close;
      ] );
    ( "shard.sanitizer",
      [
        tc "static sharded run clean" `Quick test_sharded_clean_static;
        tc "add+remove run clean" `Quick test_sharded_clean_migrating;
      ] );
  ]
