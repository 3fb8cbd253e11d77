(* Protocol-level tests against a standalone file server: raw RPCs over
   the wire, exercising corner cases of the three-phase rmdir protocol
   (parked creates, serialized locks, abort replay) and server-side fd
   state that the POSIX surface cannot easily force. *)

open Hare_sim
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
module Wire = Hare_proto.Wire
module Server = Hare_server.Server
module Rpc = Hare_msg.Rpc

let config = Test_util.small_config ~ncores:2 ()

(* One server + a client core, no client library: we speak the protocol
   directly. *)
type rig = {
  engine : Engine.t;
  server : Server.t;
  client_core : Core_res.t;
  ep : (Wire.fs_req, Wire.fs_resp) Rpc.t;
}

let make_rig () =
  let engine = Engine.create () in
  let costs = config.Hare_config.Config.costs in
  let score = Core_res.create engine ~id:0 ~socket:0 ~ctx_switch:0 in
  let client_core = Core_res.create engine ~id:1 ~socket:0 ~ctx_switch:0 in
  let dram = Hare_mem.Dram.create ~nblocks:64 in
  let pcache =
    Hare_mem.Pcache.create dram ~core:score ~costs ~capacity_lines:256
  in
  let inval_ports =
    Array.init 2 (fun i ->
        Hare_msg.Mailbox.create
          ~owner:(if i = 0 then score else client_core)
          ~costs ())
  in
  let server =
    Server.create ~engine ~config ~sid:0 ~core:score ~pcache ~dram
      ~blocks_first:0 ~blocks_count:64 ~inval_ports ()
  in
  Server.install_root server;
  Server.start server;
  { engine; server; client_core; ep = Server.endpoint server }

let call rig req = Rpc.call rig.ep ~from:rig.client_core req

let in_fiber rig body =
  let failure = ref None in
  ignore
    (Engine.spawn rig.engine ~name:"test-client" (fun () ->
         try body () with exn -> failure := Some exn));
  Engine.run rig.engine;
  match !failure with Some e -> raise e | None -> ()

let root = Types.root_ino

let mkdir_raw rig name =
  match call rig (Wire.Create_dir { dir = root; name; dist = false; client = 1; home = 0 }) with
  | Ok (Wire.P_created_ino ino) -> ino
  | _ -> Alcotest.fail "mkdir_raw"

let test_create_parked_during_mark_abort () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      (* phase 0+1: lock and mark *)
      (match call rig (Wire.Rmdir_lock { dir = d }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "lock");
      (match call rig (Wire.Rmdir_prepare { dir = d; home = 0 }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "prepare");
      (* a create in the marked directory parks... *)
      let parked, span =
        Rpc.call_async rig.ep ~from:rig.client_core ~abs_deadline:0L
          (Wire.Create_open
             { dir = d; name = "late"; excl = false; trunc = false; client = 1; home = 0 })
      in
      Core_res.compute rig.client_core 100_000;
      Alcotest.(check bool) "still parked" true (Ivar.peek parked = None);
      (* ...abort releases it and it succeeds *)
      (match call rig (Wire.Rmdir_abort { dir = d; home = 0 }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "abort");
      (match Rpc.await ~from:rig.client_core
               ~costs:config.Hare_config.Config.costs ~span parked
       with
      | Ok (Wire.P_open_ino _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "parked create should succeed");
      match call rig (Wire.Rmdir_unlock { dir = d }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "unlock")

let test_create_parked_during_mark_commit () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      ignore (call rig (Wire.Rmdir_lock { dir = d }));
      ignore (call rig (Wire.Rmdir_prepare { dir = d; home = 0 }));
      let parked, span =
        Rpc.call_async rig.ep ~from:rig.client_core ~abs_deadline:0L
          (Wire.Create_open
             { dir = d; name = "late"; excl = false; trunc = false; client = 1; home = 0 })
      in
      ignore (call rig (Wire.Rmdir_commit { dir = d; client = 1; home = 0 }));
      match Rpc.await ~from:rig.client_core
              ~costs:config.Hare_config.Config.costs ~span parked
      with
      | Error Errno.ENOENT -> ()
      | Ok _ | Error _ -> Alcotest.fail "parked create must fail with ENOENT")

let test_rmdir_lock_serializes () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      (match call rig (Wire.Rmdir_lock { dir = d }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "first lock");
      (* a competing rmdir waits on the lock *)
      let second, span =
        Rpc.call_async rig.ep ~from:rig.client_core ~abs_deadline:0L
          (Wire.Rmdir_lock { dir = d })
      in
      Core_res.compute rig.client_core 100_000;
      Alcotest.(check bool) "second lock parked" true (Ivar.peek second = None);
      (* winner commits; loser's lock must resolve with ENOENT *)
      ignore (call rig (Wire.Rmdir_prepare { dir = d; home = 0 }));
      ignore (call rig (Wire.Rmdir_commit { dir = d; client = 1; home = 0 }));
      match Rpc.await ~from:rig.client_core
              ~costs:config.Hare_config.Config.costs ~span second
      with
      | Error Errno.ENOENT -> ()
      | Ok _ | Error _ -> Alcotest.fail "loser should see ENOENT")

let test_prepare_nonempty_refuses () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      (match
         call rig
           (Wire.Create_open
              { dir = d; name = "f"; excl = false; trunc = false; client = 1; home = 0 })
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "create");
      ignore (call rig (Wire.Rmdir_lock { dir = d }));
      (match call rig (Wire.Rmdir_prepare { dir = d; home = 0 }) with
      | Error Errno.ENOTEMPTY -> ()
      | Ok _ | Error _ -> Alcotest.fail "prepare must refuse");
      (* no mark was set: creates proceed immediately *)
      match
        call rig
          (Wire.Create_open
             { dir = d; name = "g"; excl = false; trunc = false; client = 1; home = 0 })
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "create after refused prepare")

let test_double_prepare_ebusy () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      ignore (call rig (Wire.Rmdir_prepare { dir = d; home = 0 }));
      match call rig (Wire.Rmdir_prepare { dir = d; home = 0 }) with
      | Error Errno.EBUSY -> ()
      | Ok _ | Error _ -> Alcotest.fail "second prepare must be EBUSY")

let test_fd_refcount_keeps_unlinked_inode () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let token, ino =
        match
          call rig
            (Wire.Create_open
               { dir = root; name = "f"; excl = true; trunc = false; client = 1; home = 0 })
        with
        | Ok (Wire.P_open_ino { oi; ino }) -> (oi.Wire.token, ino)
        | _ -> Alcotest.fail "create"
      in
      ignore (call rig (Wire.Write_fd { token; off = Some 0; data = "keep"; append = false }));
      (* share it, unlink it *)
      ignore (call rig (Wire.Inc_fd_ref { token; offset = Some 0 }));
      ignore (call rig (Wire.Rm_map { dir = root; name = "f"; only_if = None; client = 1; home = 0 }));
      ignore (call rig (Wire.Unlink_ino { ino }));
      (* first close: refcount 2 -> 1, inode must survive *)
      ignore (call rig (Wire.Close_fd { token; size = None }));
      (match call rig (Wire.Read_fd { token; off = None; len = 10 }) with
      | Ok (Wire.P_read { data; _ }) ->
          Alcotest.(check string) "readable through last fd" "keep" data
      | _ -> Alcotest.fail "read");
      (* last close frees everything *)
      ignore (call rig (Wire.Close_fd { token; size = None }));
      Alcotest.(check int) "no tokens" 0 (Server.open_tokens rig.server);
      Alcotest.(check int) "blocks recovered" 64
        (Server.available_blocks rig.server);
      match call rig (Wire.Read_fd { token; off = None; len = 1 }) with
      | Error Errno.EBADF -> ()
      | Ok _ | Error _ -> Alcotest.fail "token must be dead")

let test_shared_offset_demotion_reply () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let token =
        match
          call rig
            (Wire.Create_open
               { dir = root; name = "f"; excl = true; trunc = false; client = 1; home = 0 })
        with
        | Ok (Wire.P_open_ino { oi; _ }) -> oi.Wire.token
        | _ -> Alcotest.fail "create"
      in
      ignore (call rig (Wire.Write_fd { token; off = Some 0; data = "0123456789"; append = false }));
      ignore (call rig (Wire.Inc_fd_ref { token; offset = Some 4 }));
      (* refcount 2: reads use the shared offset, no demotion *)
      (match call rig (Wire.Read_fd { token; off = None; len = 2 }) with
      | Ok (Wire.P_read { data; now_local }) ->
          Alcotest.(check string) "shared offset read" "45" data;
          Alcotest.(check bool) "not demoted yet" true (now_local = None)
      | _ -> Alcotest.fail "read");
      (* one holder closes: next op gets the offset back *)
      ignore (call rig (Wire.Close_fd { token; size = None }));
      match call rig (Wire.Read_fd { token; off = None; len = 2 }) with
      | Ok (Wire.P_read { data; now_local }) ->
          Alcotest.(check string) "continues" "67" data;
          Alcotest.(check (option int)) "demoted with offset" (Some 8) now_local
      | _ -> Alcotest.fail "read2")

let test_lookup_tracks_and_invalidates () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      ignore
        (call rig
           (Wire.Create_open
              { dir = root; name = "f"; excl = true; trunc = false; client = 1; home = 0 }));
      (* the create tracked client 1; an unlink by client 0 must push an
         invalidation to client 1's port *)
      let before = Server.invals_sent rig.server in
      ignore (call rig (Wire.Rm_map { dir = root; name = "f"; only_if = None; client = 0; home = 0 }));
      Alcotest.(check int) "one invalidation" (before + 1)
        (Server.invals_sent rig.server))

(* ---------- two servers ---------------------------------------------- *)

(* Two standalone servers sharing DRAM, each owning [blocks] of it, like
   one machine: A (sid 0) holds the root and home 0; B is [b_sid], the
   peer A steals blocks from. *)
type pair = {
  p_engine : Engine.t;
  a : Server.t;
  b : Server.t;
  p_client : Core_res.t;
  p_invals : Wire.inval Hare_msg.Mailbox.t array;
}

let make_pair ?(config = config) ?place ?(b_sid = 1) ~blocks () =
  let engine = Engine.create () in
  let costs = config.Hare_config.Config.costs in
  let core id = Core_res.create engine ~id ~socket:0 ~ctx_switch:0 in
  let a_core = core 0 and b_core = core 1 and client_core = core 2 in
  let dram = Hare_mem.Dram.create ~nblocks:(2 * blocks) in
  let inval_ports =
    Array.init 2 (fun i ->
        Hare_msg.Mailbox.create ~owner:(if i = 0 then a_core else client_core) ~costs ())
  in
  let server ~sid ~core ~blocks_first =
    let pcache = Hare_mem.Pcache.create dram ~core ~costs ~capacity_lines:256 in
    let s =
      Server.create ~engine ~config ~sid ~core ~pcache ~dram ~blocks_first
        ~blocks_count:blocks ~inval_ports ?place ()
    in
    Server.start s;
    s
  in
  let a = server ~sid:0 ~core:a_core ~blocks_first:0 in
  let b = server ~sid:b_sid ~core:b_core ~blocks_first:blocks in
  Server.install_root a;
  Server.set_peers a [| Server.endpoint a; Server.endpoint b |];
  { p_engine = engine; a; b; p_client = client_core; p_invals = inval_ports }

let pair_fiber p body =
  in_fiber
    { engine = p.p_engine; server = p.a; client_core = p.p_client; ep = Server.endpoint p.a }
    body

let pair_call p s req = Rpc.call (Server.endpoint s) ~from:p.p_client req

(* Send without waiting: the request may park at the server. *)
let pair_send p s req =
  Rpc.call_async (Server.endpoint s) ~from:p.p_client ~abs_deadline:0L req

let pair_await p (future, span) =
  Rpc.await ~from:p.p_client ~costs:config.Hare_config.Config.costs ~span future

let stealing = { config with Hare_config.Config.block_stealing = true }

let create_inode p =
  match
    pair_call p p.a (Wire.Create_inode { ftype = Types.Reg; dist = false; and_open = false; home = 0 })
  with
  | Ok (Wire.P_created_ino ino) -> ino
  | _ -> Alcotest.fail "create inode"

let alloc ino count = Wire.Alloc_blocks { ino; count; ahead = 0 }

(* A crash of the thief must not orphan its in-flight steal: the helper
   fiber still owns it, so the next ENOSPC after restart waits on that
   steal rather than starting a second one. *)
let test_crash_keeps_inflight_steal () =
  let p = make_pair ~config:stealing ~blocks:16 () in
  pair_fiber p (fun () ->
      Server.crash p.b;
      let ino = create_inode p in
      let first = pair_send p p.a (alloc ino 20) in
      Core_res.compute p.p_client 100_000;
      Server.crash p.a;
      (match pair_await p first with
      | Error Errno.EIO -> ()
      | _ -> Alcotest.fail "the parked alloc dies with its server");
      Server.restart p.a;
      let second = pair_send p p.a (alloc ino 20) in
      Core_res.compute p.p_client 100_000;
      Server.restart p.b;
      (match pair_await p second with
      | Ok (Wire.P_blocks { blocks; _ }) ->
          Alcotest.(check int) "alloc served" 20 (Array.length blocks)
      | _ -> Alcotest.fail "the second alloc succeeds on stolen blocks");
      Core_res.compute p.p_client 100_000;
      Alcotest.(check int) "one steal served" 1
        (Hare_stats.Opcount.get (Server.ops p.b) "STEAL_BLOCKS");
      Alcotest.(check int) "half of B's free blocks adopted" 8
        (Server.blocks_stolen p.a))

(* ---------- shard migration ------------------------------------------- *)

(* One migratory ring: A (sid 0) hosts home 0, B (sid 2, the spare the
   ring's Add activates) hosts nothing. *)
let ring () =
  Hare_place.Place.create ~nhomes:2 ~vnodes:4
    ~events:[ Hare_place.Place.Add { at = 1_000_000L } ]

let migrate_out p = pair_call p p.a (Wire.Migrate_out { home = 0 })

let expect_busy what = function
  | Error Errno.EBUSY -> ()
  | _ -> Alcotest.fail (what ^ ": the home must refuse to move")

let expect_packed what = function
  | Ok (Wire.P_pack _) -> ()
  | _ -> Alcotest.fail (what ^ ": the home must move")

(* A pending rmdir mark parks creates on this server's endpoint: the
   home stays put until the mark resolves. *)
let test_migrate_refuses_marked_home () =
  let p = make_pair ~place:(ring ()) ~b_sid:2 ~blocks:64 () in
  pair_fiber p (fun () ->
      let dir = { Types.server = 1; ino = 5 } in
      ignore (pair_call p p.a (Wire.Rmdir_prepare { dir; home = 0 }));
      expect_busy "marked" (migrate_out p);
      ignore (pair_call p p.a (Wire.Rmdir_abort { dir; home = 0 }));
      expect_packed "unmarked" (migrate_out p))

(* A request parked behind an in-flight block steal is bound to this
   server too. *)
let test_migrate_refuses_during_steal () =
  let p = make_pair ~config:stealing ~place:(ring ()) ~b_sid:2 ~blocks:16 () in
  pair_fiber p (fun () ->
      Server.crash p.b;
      let ino = create_inode p in
      let parked = pair_send p p.a (alloc ino 20) in
      Core_res.compute p.p_client 100_000;
      expect_busy "stealing" (migrate_out p);
      Server.restart p.b;
      (match pair_await p parked with
      | Ok (Wire.P_blocks _) -> ()
      | _ -> Alcotest.fail "alloc after the steal");
      Core_res.compute p.p_client 100_000;
      expect_packed "steal done" (migrate_out p))

let test_migration_round_trip () =
  let p = make_pair ~place:(ring ()) ~b_sid:2 ~blocks:64 () in
  let a = p.a and b = p.b and client_core = p.p_client and inval_ports = p.p_invals in
  let costs = config.Hare_config.Config.costs in
  let call s req = Rpc.call (Server.endpoint s) ~from:client_core req in
  let ok what = function Ok _ -> () | Error _ -> Alcotest.fail what in
  let create_open name =
    Wire.Create_open { dir = root; name; excl = false; trunc = false; client = 1; home = 0 }
  in
  let snapshot s =
    (Server.inode_count s, Server.open_tokens s, List.sort compare (Server.shard_entries s root))
  in
  pair_fiber p (fun () ->
      (* a file with an open token, holding data *)
      let token =
        match call a (create_open "f") with
        | Ok (Wire.P_open_ino { oi; _ }) -> oi.Wire.token
        | _ -> Alcotest.fail "create f"
      in
      ok "write" (call a (Wire.Write_fd { token; off = Some 0; data = "hello"; append = false }));
      (* a tracked lookup by client 1 *)
      ok "lookup" (call a (Wire.Lookup { dir = root; name = "f"; client = 1; home = 0 }));
      (* home 0's shard of a directory whose inode lives at home 1,
         removed: only the tombstone can refuse a late create *)
      let remote_dir = { Types.server = 1; ino = 5 } in
      ok "prepare" (call a (Wire.Rmdir_prepare { dir = remote_dir; home = 0 }));
      ok "commit" (call a (Wire.Rmdir_commit { dir = remote_dir; client = 1; home = 0 }));
      (* a completed tagged request *)
      let meta = { Rpc.m_client = 1; m_seq = 1; m_ack = 0 } in
      let tagged s =
        let future, span =
          Rpc.call_async (Server.endpoint s) ~from:client_core ~meta ~abs_deadline:0L
            (create_open "g")
        in
        Rpc.await ~from:client_core ~costs ~span future
      in
      ok "tagged create" (tagged a);
      let before = snapshot a in
      Alcotest.(check int) "no invalidation yet" 0
        (Hare_msg.Mailbox.pending inval_ports.(1));
      let pack =
        match call a (Wire.Migrate_out { home = 0 }) with
        | Ok (Wire.P_pack pack) -> pack
        | _ -> Alcotest.fail "migrate out"
      in
      ok "install" (call b (Wire.Install_shard { home = 0; pack }));
      Alcotest.(check bool) "client 1 told to drop f" true
        (List.mem
           (Wire.Inval_entry { i_dir = root; i_name = "f" })
           (Hare_msg.Mailbox.drain inval_ports.(1)));
      let same what (i, o, e) (i', o', e') =
        Alcotest.(check int) (what ^ " inodes") i i';
        Alcotest.(check int) (what ^ " tokens") o o';
        let flat = List.map (fun (n, (i : Types.ino)) -> (n, (i.server, i.ino))) in
        Alcotest.(check (list (pair string (pair int int))))
          (what ^ " entries") (flat e) (flat e')
      in
      same "moved to B" before (snapshot b);
      same "A emptied" (0, 0, []) (snapshot a);
      (match call a (Wire.Lookup { dir = root; name = "f"; client = 1; home = 0 }) with
      | Error Errno.EMOVED -> ()
      | _ -> Alcotest.fail "A must bounce home 0 with EMOVED");
      (* B replays the tagged request from the migrated dedup entries *)
      let hits = Hare_stats.Robust.(get (Server.robust b) dedup_hits) in
      let ops = Hare_stats.Opcount.total (Server.ops b) in
      ok "replayed create" (tagged b);
      Alcotest.(check int) "dedup hit" (hits + 1)
        Hare_stats.Robust.(get (Server.robust b) dedup_hits);
      Alcotest.(check int) "not re-executed" ops
        (Hare_stats.Opcount.total (Server.ops b));
      (match call b (Wire.Read_fd { token; off = Some 0; len = 5 }) with
      | Ok (Wire.P_read { data; _ }) ->
          Alcotest.(check string) "token reads the data" "hello" data
      | _ -> Alcotest.fail "read through the migrated token");
      match
        call b
          (Wire.Create_open
             { dir = remote_dir; name = "x"; excl = false; trunc = false; client = 1; home = 0 })
      with
      | Error Errno.ENOENT -> ()
      | _ -> Alcotest.fail "the tombstone must refuse the create")

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "server.rmdir-protocol",
      [
        tc "parked create, abort" `Quick test_create_parked_during_mark_abort;
        tc "parked create, commit" `Quick test_create_parked_during_mark_commit;
        tc "lock serializes" `Quick test_rmdir_lock_serializes;
        tc "prepare refuses nonempty" `Quick test_prepare_nonempty_refuses;
        tc "double prepare EBUSY" `Quick test_double_prepare_ebusy;
      ] );
    ( "server.fds",
      [
        tc "unlinked inode survives fds" `Quick test_fd_refcount_keeps_unlinked_inode;
        tc "lazy demotion reply" `Quick test_shared_offset_demotion_reply;
        tc "tracking + invalidation" `Quick test_lookup_tracks_and_invalidates;
      ] );
    ("server.steal", [ tc "crash keeps the in-flight steal" `Quick test_crash_keeps_inflight_steal ]);
    ( "server.migration",
      [
        tc "home round trip" `Quick test_migration_round_trip;
        tc "marked home refuses" `Quick test_migrate_refuses_marked_home;
        tc "steal in flight refuses" `Quick test_migrate_refuses_during_steal;
      ] );
  ]
