(* Fault injection end-to-end: deterministic fault plans, RPC
   timeout/retry with exactly-once dedup, and file-server
   crash-recovery. The core check throughout: a workload run under a
   fault plan produces the same file-system tree as the fault-free
   oracle — faults cost retries and recovery work, never correctness. *)

open Test_util
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
module Wire = Hare_proto.Wire
module Robust = Hare_stats.Robust
module Plan = Hare_fault.Plan

(* ---------- plan parsing ------------------------------------------------ *)

let test_plan_parse () =
  let p =
    Plan.parse_exn "drop:fs:0.05; dup:fs1:0.02; delay:fs:0.1:4000; crash:1@200000+150000; stall:2@5000+800"
  in
  Alcotest.(check int) "rules" 3 (List.length p.Plan.rules);
  Alcotest.(check int) "events" 2 (List.length p.Plan.events);
  (* canonical string round-trips *)
  let s = Plan.to_string p in
  Alcotest.(check string) "round-trip" s (Plan.to_string (Plan.parse_exn s));
  Alcotest.(check bool) "empty" true (Plan.is_empty (Plan.parse_exn "  "));
  let bad spec =
    match Plan.parse spec with
    | Ok _ -> Alcotest.fail ("accepted: " ^ spec)
    | Error _ -> ()
  in
  bad "drop:fs:1.5";
  bad "drop:disk:0.1";
  bad "flip:fs:0.1";
  bad "crash:1";
  bad "stall:1@50";
  bad "delay:fs:0.1"

(* ---------- soak harness ------------------------------------------------ *)

let soak_config ?(plan = "") ?(deadline = 0) ?(retries = 12) ?(partial = true)
    () =
  {
    (small_config ~ncores:4 ()) with
    Config.fault_plan = plan;
    rpc_deadline = deadline;
    rpc_retries = retries;
    partial_broadcast = partial;
    seed = 42L;
  }

(* Canonical snapshot of the whole tree: sorted paths, with sizes and a
   content hash for regular files. *)
let rec snapshot p path acc =
  let entries =
    List.sort compare
      (List.map
         (fun (e : Wire.entry) -> (e.Wire.e_name, e.Wire.e_ftype))
         (Posix.readdir p path))
  in
  List.fold_left
    (fun acc (name, (ft : Types.ftype)) ->
      let full = (if path = "/" then "" else path) ^ "/" ^ name in
      match ft with
      | Types.Dir -> snapshot p full ((full ^ "/") :: acc)
      | Types.Reg ->
          let fd = Posix.openf p full flags_r in
          let data = Posix.read_all p fd in
          Posix.close p fd;
          Printf.sprintf "%s #%d %d" full (String.length data)
            (Hashtbl.hash data)
          :: acc
      | Types.Fifo -> (full ^ " |") :: acc)
    acc entries

(* Run the paper's fsstress benchmark (every worker in its own subtree)
   on a machine booted with [config]; return the final tree, the merged
   robustness counters, the final simulated time and the machine for
   post-mortem counter inspection. *)
let run_fsstress config =
  let tree = ref [] in
  let after _ p ~failures =
    if failures = 0 then tree := List.rev (snapshot p "/" [])
  in
  (* Boot-time probe count of this configuration, from an identical
     machine: the run's own boot happens inside the driver. *)
  let probes0 = Hare_sim.Engine.probe_count (Machine.engine (Machine.boot config)) in
  let m = run_workload ~wname:"fsstress" ~after config in
  (* Crashed servers unwatch their queue-depth probes and restarts
     rewatch them; every fault plan here restarts, so the registry must
     end exactly where it began (no leaked or lost probe slots). *)
  Alcotest.(check int) "probe registry restored" probes0
    (Hare_sim.Engine.probe_count (Machine.engine m));
  (!tree, Machine.robustness m, Machine.now m, m)

(* The fault-free oracle, computed once and shared by every soak case. *)
let oracle = lazy (run_fsstress (soak_config ()))

let check_tree name faulted =
  let expect, _, _, _ = Lazy.force oracle in
  Alcotest.(check (list string)) (name ^ ": tree matches oracle") expect faulted

(* ---------- soak cases -------------------------------------------------- *)

let test_fault_free_counters () =
  let _, robust, _, _ = Lazy.force oracle in
  Alcotest.(check bool)
    (Fmt.str "no fault plan => all counters zero (got: %a)" Robust.pp robust)
    true (Robust.is_zero robust)

let test_machinery_armed_but_idle () =
  (* Deadlines and dedup tags on, but an empty plan: nothing may change
     in the produced state and no fault counter may move. *)
  let tree, robust, _, _ = run_fsstress (soak_config ~deadline:1_000_000 ()) in
  check_tree "armed-idle" tree;
  Alcotest.(check bool)
    (Fmt.str "empty plan => counters zero (got: %a)" Robust.pp robust)
    true (Robust.is_zero robust)

let lossy_config () =
  soak_config ~plan:"drop:fs:0.04;dup:fs:0.04;delay:fs:0.06:4000"
    ~deadline:25_000 ()

let test_message_faults () =
  let tree, r, _, _ = run_fsstress (lossy_config ()) in
  check_tree "lossy" tree;
  Alcotest.(check bool) "some drops" true (Robust.get r Robust.drops > 0);
  Alcotest.(check bool) "some dups" true (Robust.get r Robust.dups > 0);
  Alcotest.(check bool) "some delays" true (Robust.get r Robust.delays > 0);
  Alcotest.(check bool) "timeouts seen" true (Robust.get r Robust.timeouts > 0);
  Alcotest.(check bool) "retries recovered them" true
    (Robust.get r Robust.retries > 0);
  Alcotest.(check int) "nobody gave up" 0 (Robust.get r Robust.giveups)

let test_determinism () =
  (* Same seed, same plan: bit-identical fault sequence, counters and
     final clock. *)
  let tree1, r1, end1, _ = run_fsstress (lossy_config ()) in
  let tree2, r2, end2, _ = run_fsstress (lossy_config ()) in
  Alcotest.(check (list string)) "same tree" tree1 tree2;
  Alcotest.(check bool)
    (Fmt.str "same counters (%a vs %a)" Robust.pp r1 Robust.pp r2)
    true (Robust.equal r1 r2);
  Alcotest.(check int64) "same final cycle" end1 end2

let test_dedup_exactly_once () =
  (* Duplicate every single request: without (client, seq) dedup this
     would double-apply creates and unlinks everywhere. *)
  let tree, r, _, _ =
    run_fsstress (soak_config ~plan:"dup:fs:1.0" ~deadline:50_000 ())
  in
  check_tree "dup-everything" tree;
  Alcotest.(check bool) "dedup absorbed the copies" true
    (Robust.get r Robust.dedup_hits > 0)

let test_dedup_bounded () =
  (* The cumulative-ack low-water mark riding every tagged request must
     actually evict server dedup entries — otherwise the table grows
     with every RPC for the life of the client. An idle-armed run (tags
     on, no faults) already acks continuously, so evictions must be
     plentiful; under heavy duplication they must happen too, without
     breaking exactly-once (checked by test_dedup_exactly_once). *)
  let _, _, _, m = run_fsstress (soak_config ~deadline:1_000_000 ()) in
  Alcotest.(check bool) "acked dedup entries evicted" true
    (Hare_stats.Perf.(get (Machine.perf m) dedup_evicted) > 0)

let test_crash_recovery () =
  (* Kill a file server mid-run for 300k cycles. Clients must ride it
     out with retries and token recovery; the server must rebuild its
     volatile state from the DRAM-resident structures. *)
  let tree, r, _, _ =
    run_fsstress
      (soak_config ~plan:"crash:2@1000000+300000" ~deadline:25_000 ())
  in
  check_tree "crash-recovery" tree;
  Alcotest.(check int) "one crash" 1 (Robust.get r Robust.crashes);
  Alcotest.(check int) "one restart" 1 (Robust.get r Robust.restarts);
  Alcotest.(check bool) "retries during the outage" true
    (Robust.get r Robust.retries > 0);
  Alcotest.(check bool) "clients flushed dircaches on reconnect" true
    (Robust.get r Robust.cache_flushes > 0);
  Alcotest.(check int) "nobody gave up" 0 (Robust.get r Robust.giveups)

let test_timed_region_flushes () =
  (* A crash early in rm's setup: the restarted server makes every
     client flush its dircache, and rm's setup walks the tree, so each
     client applies its flush before the timed region. The driver's
     counters cover the timed region only, so those flushes must be
     zeroed along with the crash and the restart. (A client applies a
     flush at its next lookup; under [creates], whose setup makes no
     lookup, the flushes fall in the timed region and count there.) *)
  let module D = Hare_experiments.Driver in
  let module HD = D.Make (Hare_experiments.World.Hare_w) in
  let config =
    D.with_fault_plan "crash:1@1000+2000" (D.default_config ~ncores:4)
  in
  let r = (HD.run ~config (Hare_workloads.All.find "rm dense")).D.robust in
  let zero what k =
    Alcotest.(check int) ("timed region: " ^ what) 0 (Robust.get r k)
  in
  zero "no crash" Robust.crashes;
  zero "no restart" Robust.restarts;
  zero "no dircache flush" Robust.cache_flushes

(* ---------- targeted cases --------------------------------------------- *)

let test_giveup_is_eio () =
  (* Total packet loss: retries must be bounded and surface EIO. *)
  let config =
    soak_config ~plan:"drop:fs:1.0" ~deadline:2_000 ~retries:3 ()
  in
  let m = Machine.boot config in
  let init, _ =
    Machine.spawn_init m ~name:"giveup" (fun p _ ->
        expect_errno "mkdir under total loss" Errno.EIO (fun () ->
            Posix.mkdir p "/nope");
        0)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "init ok" (Some 0) (Machine.exit_status m init);
  let r = Machine.robustness m in
  Alcotest.(check bool) "gave up at least once" true
    (Robust.get r Robust.giveups > 0);
  Alcotest.(check bool) "bounded attempts" true
    (Robust.get r Robust.timeouts <= 3 * (1 + Robust.get r Robust.giveups))

(* Shared helper: a distributed directory whose shards span every
   server, then server 1 dies for good before the listing. *)
let dead_shard_machine ~partial =
  let config =
    soak_config ~plan:"crash:1@1000000" ~deadline:5_000 ~retries:3 ~partial ()
  in
  let m = Machine.boot config in
  (m, config)

let test_readdir_partial () =
  let m, _ = dead_shard_machine ~partial:true in
  let init, _ =
    Machine.spawn_init m ~name:"partial" (fun p _ ->
        Posix.mkdir p ~dist:true "/d";
        for i = 0 to 15 do
          Posix.close p (Posix.creat p (Printf.sprintf "/d/f%02d" i))
        done;
        let full = List.length (Posix.readdir p "/d") in
        Alcotest.(check int) "all entries before the crash" 16 full;
        Posix.compute p 1_200_000;
        (* server 1 is now gone; its shard's entries drop out *)
        let after = List.length (Posix.readdir p "/d") in
        Alcotest.(check bool)
          (Printf.sprintf "partial listing (%d) is a strict subset" after)
          true
          (after < 16 && after > 0);
        0)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "init ok" (Some 0) (Machine.exit_status m init);
  Alcotest.(check bool) "partial broadcasts counted" true
    (Robust.get (Machine.robustness m) Robust.partial_broadcasts > 0)

let test_readdir_strict_eio () =
  let m, _ = dead_shard_machine ~partial:false in
  let init, _ =
    Machine.spawn_init m ~name:"strict" (fun p _ ->
        Posix.mkdir p ~dist:true "/d";
        for i = 0 to 15 do
          Posix.close p (Posix.creat p (Printf.sprintf "/d/f%02d" i))
        done;
        Posix.compute p 1_200_000;
        expect_errno "readdir with a dead shard" Errno.EIO (fun () ->
            Posix.readdir p "/d");
        0)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "init ok" (Some 0) (Machine.exit_status m init)

let test_stall_delays_but_delivers () =
  (* A stalled server freezes delivery without losing anything: with a
     deadline comfortably above the stall, no retries are needed. *)
  let config =
    soak_config ~plan:"stall:0@20000+30000" ~deadline:200_000 ()
  in
  let m = Machine.boot config in
  let init, _ =
    Machine.spawn_init m ~name:"stall" (fun p _ ->
        Posix.compute p 25_000;
        (* inside the stall window; served only after it lifts *)
        Posix.mkdir p "/slow";
        Alcotest.(check bool) "past the stall window" true
          (Hare_sim.Engine.now (Machine.engine m) >= 50_000L);
        0)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "init ok" (Some 0) (Machine.exit_status m init);
  let r = Machine.robustness m in
  Alcotest.(check int) "no retries needed" 0 (Robust.get r Robust.retries)

(* ---------- token recovery ---------------------------------------------- *)

(* A crashed server forgets its descriptor tokens; the first use of one
   afterwards answers EBADF, and the client re-opens the inode and
   carries on (the retry protocol must be on for that). Each case runs
   [body] with a [bounce fd] that crashes and restarts [fd]'s server on
   the spot, then reads the file back and counts the recoveries. *)
let recovery ?(direct = true) ?(extent = 1) body =
  let config =
    {
      (soak_config ~deadline:25_000 ()) with
      Config.direct_access = direct;
      alloc_extent = extent;
    }
  in
  let got = ref "" in
  let m =
    run ~config (fun m p ->
        let bounce fd =
          let srv = (Machine.servers m).((Posix.fstat p fd).Types.a_ino.server) in
          Hare_server.Server.crash srv;
          Hare_server.Server.restart srv
        in
        let fd = Posix.creat p "/f" in
        body p fd bounce;
        Posix.close p fd;
        let fd = Posix.openf p "/f" flags_r in
        got := Posix.read_all p fd;
        Posix.close p fd;
        0)
  in
  (!got, m)

let recovered m = Robust.get (Machine.robustness m) Robust.tokens_recovered

let test_recover_local_direct () =
  let got, m =
    recovery (fun p fd bounce ->
        let other = Posix.openf p "/f" flags_r in
        ignore (Posix.write p fd "abc");
        bounce fd;
        (* fsync's Update_size recovers the token and pushes the size *)
        Posix.fsync p fd;
        ignore (Posix.write p fd "def");
        (* the crash already closed this one: close must not fail *)
        bounce fd;
        Posix.close p other;
        Posix.fsync p fd)
  in
  Alcotest.(check string) "contents" "abcdef" got;
  Alcotest.(check int) "tokens recovered" 2 (recovered m)

let test_recover_local_rpc () =
  let got, m =
    recovery ~direct:false (fun p fd bounce ->
        ignore (Posix.write p fd "abc");
        ignore (Posix.lseek p fd ~pos:1 Types.Seek_set);
        bounce fd;
        (* the local offset survives the crash *)
        Alcotest.(check string) "read" "bc" (Posix.read p fd ~len:8);
        bounce fd;
        ignore (Posix.write p fd "def"))
  in
  Alcotest.(check string) "contents" "abcdef" got;
  Alcotest.(check int) "tokens recovered" 2 (recovered m)

(* After a fork the offset lives at the server and dies with it: the
   recovered descriptor falls back to a local offset at zero. *)
let test_recover_shared () =
  List.iter
    (fun direct ->
      let what = Printf.sprintf "direct=%b: " direct in
      let got, m =
        recovery ~direct (fun p fd bounce ->
            ignore (Posix.write p fd "0123456789");
            ignore (Posix.waitpid p (Posix.fork p (fun _child -> 0)));
            bounce fd;
            Alcotest.(check string) (what ^ "read from 0") "0123"
              (Posix.read p fd ~len:4);
            ignore (Posix.waitpid p (Posix.fork p (fun _child -> 0)));
            bounce fd;
            Alcotest.(check int) (what ^ "lseek from 0") 2
              (Posix.lseek p fd ~pos:2 Types.Seek_cur);
            ignore (Posix.waitpid p (Posix.fork p (fun _child -> 0)));
            bounce fd;
            ignore (Posix.write p fd "ab"))
      in
      Alcotest.(check string) (what ^ "write at 0") "ab23456789" got;
      Alcotest.(check int) (what ^ "tokens recovered") 3 (recovered m))
    [ true; false ]

let test_recover_extent_lease () =
  (* The restart reclaims the blocks leased ahead of the size; the
     recovered descriptor must resync its block list, so growing the
     file asks the server again instead of writing into freed blocks. *)
  let page = String.make 5000 'x' in
  let got, m =
    recovery ~extent:8 (fun p fd bounce ->
        ignore (Posix.write p fd page);
        Posix.fsync p fd;
        bounce fd;
        Posix.fsync p fd;
        ignore (Posix.write p fd page))
  in
  let perf = Hare_stats.Perf.get (Machine.perf m) in
  Alcotest.(check int) "both growths allocate" 2 (perf Hare_stats.Perf.lease_misses);
  Alcotest.(check int) "no write into a reclaimed lease" 0
    (perf Hare_stats.Perf.lease_hits);
  Alcotest.(check string) "contents" (page ^ page) got;
  Alcotest.(check int) "tokens recovered" 1 (recovered m)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "fault.plan",
      [ tc "parse + round-trip + rejects" `Quick test_plan_parse ] );
    ( "fault.soak",
      [
        tc "fault-free counters zero" `Quick test_fault_free_counters;
        tc "armed but idle" `Quick test_machinery_armed_but_idle;
        tc "drop/dup/delay" `Quick test_message_faults;
        tc "deterministic replay" `Quick test_determinism;
        tc "dup everything: exactly-once" `Quick test_dedup_exactly_once;
        tc "ack mark bounds the dedup table" `Quick test_dedup_bounded;
        tc "crash + recovery" `Quick test_crash_recovery;
        tc "timed region drops setup flushes" `Quick test_timed_region_flushes;
      ] );
    ( "fault.targeted",
      [
        tc "bounded retries give EIO" `Quick test_giveup_is_eio;
        tc "readdir partial results" `Quick test_readdir_partial;
        tc "readdir strict EIO" `Quick test_readdir_strict_eio;
        tc "stall only delays" `Quick test_stall_delays_but_delivers;
      ] );
    ( "fault.recovery",
      [
        tc "local direct: fsync, close" `Quick test_recover_local_direct;
        tc "local over RPC: read, write" `Quick test_recover_local_rpc;
        tc "shared: read, lseek, write" `Quick test_recover_shared;
        tc "extent lease resync" `Quick test_recover_extent_lease;
      ] );
  ]
