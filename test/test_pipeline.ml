(* PR 2 pipeline behaviour: RPC coalescing fast paths observed through
   rpc_count, the client send window (deferred close/unlink), server
   batch dispatch, extent-granularity allocation, the bounded directory
   cache, and the PR 1 fault soak re-run with every pipeline knob wide
   open. Paper-faithful defaults (window 1, batch 1, extent 1) must stay
   bit-identical; the knobs must only move cost counters, never the
   produced file-system state. *)

open Test_util
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
module Client = Hare_client.Client
module Dircache = Hare_client.Dircache
module Server = Hare_server.Server
module Perf = Hare_stats.Perf
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module HD = Driver.Make (World.Hare_w)

let client_of m p = (Machine.clients m).(p.P.core_id)

let rpc_delta m p f =
  let c = client_of m p in
  let before = Client.rpc_count c in
  f ();
  Client.rpc_count c - before

(* ---------- coalescing fast paths (§3.6.3) ----------------------------- *)

let test_coalesced_single_server () =
  (* One core, one server, everything colocated: the create/mkdir fast
     paths must collapse to exactly one message. *)
  ignore
    (run ~config:(small_config ~ncores:1 ()) (fun m p ->
         let creat = rpc_delta m p (fun () -> Posix.close p (Posix.creat p "/f")) in
         (* Create_open coalesces inode + entry + fd: 1 RPC; the close is
            the second. *)
         Alcotest.(check int) "creat+close = Create_open + Close_fd" 2 creat;
         let mk = rpc_delta m p (fun () -> Posix.mkdir p "/d") in
         Alcotest.(check int) "mkdir = one Create_dir" 1 mk;
         (* Centralized rmdir: Rmdir_local coalesces the emptiness check
            and removal; only the parent entry needs a second message. *)
         let rm = rpc_delta m p (fun () -> Posix.rmdir p "/d") in
         Alcotest.(check int) "rmdir = Rmdir_local + Rm_map" 2 rm;
         0))

let test_fallback_cross_socket () =
  (* Two single-core sockets. Root's entries all live on root's home
     server (socket 0), so a client on socket 1 can never coalesce:
     creation affinity places the inode on its local server (1 RPC) and
     the entry on root's server (1 more). The same ops from socket 0
     coalesce to a single message. *)
  let config =
    { Config.default with
      Config.ncores = 2;
      buffer_cache_blocks = 1024;
      cores_per_socket = 1;
    }
  in
  let m = Machine.boot config in
  Machine.register_program m "nop" (fun _ _ -> 0);
  Machine.register_program m "remote-creator" (fun p _ ->
      if p.P.core_id = 0 then 20 (* placement assumption broken *)
      else begin
        let d1 =
          rpc_delta m p (fun () -> ignore (Posix.creat p "/remote-file"))
        in
        let d2 = rpc_delta m p (fun () -> Posix.mkdir p "/remote-dir") in
        if d1 <> 2 then 21 else if d2 <> 2 then 22 else 0
      end);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        (* Round-robin placement starts at core 0; burn that slot so the
           next spawn lands on core 1 (the other socket). *)
        let pid = Posix.spawn p ~prog:"nop" ~args:[] in
        ignore (Posix.waitpid p pid);
        let pid = Posix.spawn p ~prog:"remote-creator" ~args:[] in
        (match Posix.waitpid p pid with 0 -> () | n -> Posix.exit p n);
        let d1 =
          rpc_delta m p (fun () -> ignore (Posix.creat p "/local-file"))
        in
        let d2 = rpc_delta m p (fun () -> Posix.mkdir p "/local-dir") in
        if d1 <> 1 then 23 else if d2 <> 1 then 24 else 0)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "coalesced locally, fallback remotely"
    (Some 0)
    (Machine.exit_status m init)

let test_rmdir_distributed_multi_rpc () =
  (* A distributed directory spreads its shards over every server: rmdir
     needs the three-phase protocol (lock, prepare on every shard,
     commit), far beyond the centralized 2-RPC fast path. *)
  ignore
    (run ~config:(small_config ~ncores:4 ()) (fun m p ->
         Posix.mkdir p ~dist:true "/dist";
         let d = rpc_delta m p (fun () -> Posix.rmdir p "/dist") in
         Alcotest.(check bool)
           (Printf.sprintf "distributed rmdir is multi-RPC (got %d)" d)
           true (d > 2);
         0))

(* ---------- client send window ----------------------------------------- *)

let windowed_config ?(ncores = 2) () =
  { (small_config ~ncores ()) with Config.rpc_window = 8 }

let test_window_correctness () =
  (* Deferred closes must not change what later opens observe; process
     teardown must drain the window. *)
  let m =
    run ~config:(windowed_config ()) (fun m p ->
        for i = 0 to 19 do
          let path = Printf.sprintf "/w%02d" i in
          let fd = Posix.creat p path in
          Posix.write_all p fd (Printf.sprintf "payload-%02d" i);
          Posix.close p fd
        done;
        for i = 0 to 19 do
          let path = Printf.sprintf "/w%02d" i in
          let fd = Posix.openf p path flags_r in
          let s = Posix.read_all p fd in
          Alcotest.(check string) path (Printf.sprintf "payload-%02d" i) s;
          Posix.close p fd
        done;
        ignore (rpc_delta m p (fun () -> ()));
        0)
  in
  let perf = Machine.perf m in
  Alcotest.(check bool) "closes were deferred" true
    (Perf.get perf Perf.deferred > 0);
  Alcotest.(check bool) "window depth exceeded 1" true
    (Perf.get perf Perf.window_hwm > 1);
  (* Teardown drained everything: every server saw its deferred closes,
     so no descriptor tokens leak. *)
  Array.iter
    (fun s -> Alcotest.(check int) "no open tokens leak" 0 (Server.open_tokens s))
    (Machine.servers m)

let count_closes ~window =
  let config = { (small_config ~ncores:1 ()) with Config.rpc_window = window } in
  let m =
    run ~config (fun _m p ->
        for i = 0 to 49 do
          Posix.close p (Posix.creat p (Printf.sprintf "/c%02d" i))
        done;
        0)
  in
  Machine.now m

let test_window_saves_cycles () =
  (* Same program, window 1 vs 8: deferring the close replies removes a
     blocking receive (and its context switches) from every iteration. *)
  let base = count_closes ~window:1 in
  let piped = count_closes ~window:8 in
  Alcotest.(check bool)
    (Printf.sprintf "window=8 finishes earlier (%Ld vs %Ld)" piped base)
    true
    (Int64.compare piped base < 0)

(* ---------- server batch dispatch -------------------------------------- *)

let test_batch_histogram () =
  (* Several clients hammering shared servers with deferred sends: the
     dispatch loop must observe multi-message wakeups. *)
  let config =
    { (small_config ~ncores:4 ()) with Config.rpc_window = 8; batch_max = 8 }
  in
  let m = Machine.boot config in
  Machine.register_program m "mill" (fun p args ->
      let idx = List.hd args in
      for i = 0 to 49 do
        Posix.close p (Posix.creat p (Printf.sprintf "/m%s-%02d" idx i))
      done;
      0);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        let pids =
          List.init 4 (fun i ->
              Posix.spawn p ~prog:"mill" ~args:[ string_of_int i ])
        in
        List.fold_left (fun acc pid -> acc + Posix.waitpid p pid) 0 pids)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "all ok" (Some 0) (Machine.exit_status m init);
  let perf = Machine.perf m in
  Alcotest.(check bool) "servers woke up" true (Perf.get perf Perf.batches > 0);
  Alcotest.(check bool) "some wakeups drained several requests" true
    (Perf.get perf Perf.batched_msgs > Perf.get perf Perf.batches)

let test_knobs_save_cycles_end_to_end () =
  (* The acceptance ablation in miniature: the figure-5 creates workload
     at 4 cores, defaults vs window/batch/extent at 8. *)
  let base = HD.run ~config:(Driver.default_config ~ncores:4) (Hare_workloads.All.find "creates") in
  let piped =
    HD.run
      ~config:
        {
          (Driver.default_config ~ncores:4) with
          Config.rpc_window = 8;
          batch_max = 8;
          alloc_extent = 8;
        }
      (Hare_workloads.All.find "creates")
  in
  Alcotest.(check bool)
    (Printf.sprintf "8/8/8 beats 1/1/1 (%.0f vs %.0f us)"
       (piped.Driver.elapsed *. 1e6)
       (base.Driver.elapsed *. 1e6))
    true
    (piped.Driver.elapsed < base.Driver.elapsed);
  Alcotest.(check int) "same op count" base.Driver.ops piped.Driver.ops

(* ---------- extent-granularity allocation ------------------------------ *)

let grow_file ~extent =
  let config = { (small_config ~ncores:1 ()) with Config.alloc_extent = extent } in
  let chunk = String.make Hare_mem.Layout.block_size 'x' in
  let rpcs = ref 0 in
  let m =
    run ~config (fun m p ->
        let fd = Posix.creat p "/big" in
        rpcs :=
          rpc_delta m p (fun () ->
              for _ = 1 to 16 do
                Posix.write_all p fd chunk
              done);
        Posix.close p fd;
        0)
  in
  (m, !rpcs)

let test_extent_lease_saves_rpcs () =
  let m1, base_rpcs = grow_file ~extent:1 in
  let m8, lease_rpcs = grow_file ~extent:8 in
  Alcotest.(check bool)
    (Printf.sprintf "extent=8 allocates in fewer RPCs (%d vs %d)" lease_rpcs
       base_rpcs)
    true
    (lease_rpcs < base_rpcs);
  let perf = Machine.perf m8 in
  Alcotest.(check bool) "lease hits recorded" true
    (Perf.get perf Perf.lease_hits > 0);
  (* Lease reclamation at last close: both machines end up with the same
     number of free blocks — over-allocation never outlives the fd. *)
  let free m =
    Array.fold_left (fun acc s -> acc + Server.available_blocks s) 0
      (Machine.servers m)
  in
  Alcotest.(check int) "lease blocks returned on close" (free m1) (free m8)

(* ---------- bounded directory cache ------------------------------------ *)

let test_dircache_eviction () =
  let config =
    { (small_config ~ncores:1 ()) with Config.dircache_capacity = 4 }
  in
  ignore
    (run ~config (fun m p ->
         for i = 0 to 11 do
           Posix.close p (Posix.creat p (Printf.sprintf "/e%02d" i))
         done;
         let dc = Client.dircache (client_of m p) in
         Alcotest.(check bool)
           (Printf.sprintf "cache stayed within capacity (size %d)"
              (Dircache.size dc))
           true
           (Dircache.size dc <= 4);
         Alcotest.(check bool) "evictions counted" true
           (Dircache.evictions dc > 0);
         (* Evicted entries are merely forgotten, not wrong: a fresh stat
            refetches them. *)
         ignore (Posix.stat p "/e00");
         0))

(* A bounded cache serving only hits must not grow: every hit queues an
   LRU pair, and only [add] evicts. Compaction must keep the live pairs
   in order, so the least recently used entry is still the one
   evicted. *)
let test_dircache_hits_bounded () =
  let e = Hare_sim.Engine.create () in
  let core = Hare_sim.Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let port = Hare_msg.Mailbox.create ~owner:core ~costs:Config.default.costs () in
  let dc = Dircache.create ~enabled:true ~capacity:4 ~port () in
  let dir = Types.root_ino in
  let info = { Hare_proto.Wire.t_ino = dir; t_ftype = Types.Reg; t_dist = false } in
  let hits n name =
    for _ = 1 to n do
      ignore (Dircache.find dc ~dir ~name)
    done
  in
  Dircache.add dc ~dir ~name:"a" info;
  hits 100 "a";
  let before = Obj.reachable_words (Obj.repr dc) in
  hits 100_000 "a";
  let after = Obj.reachable_words (Obj.repr dc) in
  if after > before + 64 then
    Alcotest.failf "100k hits grew the cache from %d to %d words" before after;
  List.iter (fun name -> Dircache.add dc ~dir ~name info) [ "b"; "c"; "d" ];
  hits 1_000 "a";
  Dircache.add dc ~dir ~name:"e" info;
  Alcotest.(check bool) "hot entry kept" true (Dircache.find dc ~dir ~name:"a" <> None);
  Alcotest.(check bool) "least recently used evicted" true
    (Dircache.find dc ~dir ~name:"b" = None);
  Alcotest.(check int) "one eviction" 1 (Dircache.evictions dc);
  (* A removed entry's pairs are stale: eviction skips them and takes the
     least recently used entry still cached. *)
  Dircache.remove dc ~dir ~name:"c";
  List.iter (fun name -> Dircache.add dc ~dir ~name info) [ "f"; "g" ];
  Alcotest.(check int) "size" 4 (Dircache.size dc);
  Alcotest.(check bool) "next LRU evicted" true (Dircache.find dc ~dir ~name:"d" = None);
  Alcotest.(check int) "two evictions" 2 (Dircache.evictions dc)

(* ---------- PR 1 fault soak with the pipeline wide open ----------------- *)

let pipelined ?(window = 8) ?(batch = 8) ?(extent = 8) config =
  { config with Config.rpc_window = window; batch_max = batch;
    alloc_extent = extent }

let test_fault_soak_pipelined_lossy () =
  (* Message faults under deferred sends and batched dispatch: the
     retry/dedup machinery must still converge to the fault-free tree. *)
  let config =
    pipelined
      (Test_fault.soak_config
         ~plan:"drop:fs:0.04;dup:fs:0.04;delay:fs:0.06:4000" ~deadline:25_000
         ())
  in
  let tree, r, _, _ = Test_fault.run_fsstress config in
  Test_fault.check_tree "pipelined-lossy" tree;
  Alcotest.(check bool) "retries happened" true
    (Hare_stats.Robust.(get r retries) > 0);
  Alcotest.(check int) "nobody gave up" 0 Hare_stats.Robust.(get r giveups)

let test_fault_soak_pipelined_crash () =
  (* A server crash while extent leases are outstanding: restart must
     trim leases and forget tokens without corrupting the tree. *)
  let config =
    pipelined
      (Test_fault.soak_config ~plan:"crash:2@1000000+300000" ~deadline:25_000
         ())
  in
  let tree, r, _, _ = Test_fault.run_fsstress config in
  Test_fault.check_tree "pipelined-crash" tree;
  Alcotest.(check int) "one crash" 1 Hare_stats.Robust.(get r crashes);
  Alcotest.(check int) "nobody gave up" 0 Hare_stats.Robust.(get r giveups)

let suites =
  [
    ( "pipeline.coalescing",
      [
        Alcotest.test_case "single server fast paths" `Quick
          test_coalesced_single_server;
        Alcotest.test_case "cross-socket fallback" `Quick
          test_fallback_cross_socket;
        Alcotest.test_case "distributed rmdir" `Quick
          test_rmdir_distributed_multi_rpc;
      ] );
    ( "pipeline.window",
      [
        Alcotest.test_case "deferred closes correct" `Quick
          test_window_correctness;
        Alcotest.test_case "window saves cycles" `Quick
          test_window_saves_cycles;
      ] );
    ( "pipeline.batch",
      [
        Alcotest.test_case "batch histogram" `Quick test_batch_histogram;
        Alcotest.test_case "knobs save cycles" `Quick
          test_knobs_save_cycles_end_to_end;
      ] );
    ( "pipeline.extent",
      [
        Alcotest.test_case "lease saves rpcs" `Quick
          test_extent_lease_saves_rpcs;
      ] );
    ( "pipeline.dircache",
      [
        Alcotest.test_case "bounded lru" `Quick test_dircache_eviction;
        Alcotest.test_case "hits stay bounded" `Quick test_dircache_hits_bounded;
      ] );
    ( "pipeline.faults",
      [
        Alcotest.test_case "lossy soak, knobs open" `Quick
          test_fault_soak_pipelined_lossy;
        Alcotest.test_case "crash soak, knobs open" `Quick
          test_fault_soak_pipelined_crash;
      ] );
  ]
