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
   directly. The client core is client 1; the server's own core (id 0)
   doubles as client 0. *)
type rig = {
  engine : Engine.t;
  server : Server.t;
  client_core : Core_res.t;
  client0 : Core_res.t;
  ep : (Wire.fs_req, Wire.fs_resp) Rpc.t;
  invals : Wire.inval Hare_msg.Mailbox.t array;
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
  {
    engine;
    server;
    client_core;
    client0 = score;
    ep = Server.endpoint server;
    invals = inval_ports;
  }

(* Every request is addressed to the server's one home, 0. *)
let call ?from rig req =
  Rpc.call rig.ep ~from:(Option.value from ~default:rig.client_core) ~home:0 req

let send rig req =
  Rpc.call_async rig.ep ~from:rig.client_core ~home:0 ~abs_deadline:0L req

let run_fiber engine body =
  let failure = ref None in
  ignore
    (Engine.spawn engine ~name:"test-client" (fun () ->
         try body () with exn -> failure := Some exn));
  Engine.run engine;
  match !failure with Some e -> raise e | None -> ()

let in_fiber rig body = run_fiber rig.engine body

let root = Types.root_ino

let mkdir_raw rig name =
  match call rig (Wire.Create_dir { dir = root; name; dist = false }) with
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
      (match call rig (Wire.Rmdir_prepare { dir = d }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "prepare");
      (* a create in the marked directory parks... *)
      let parked, span =
        send rig
          (Wire.Create_open { dir = d; name = "late"; excl = false; trunc = false })
      in
      Core_res.compute rig.client_core 100_000;
      Alcotest.(check bool) "still parked" true (Ivar.peek parked = None);
      (* ...abort releases it and it succeeds *)
      (match call rig (Wire.Rmdir_abort { dir = d }) with
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
      ignore (call rig (Wire.Rmdir_prepare { dir = d }));
      let parked, span =
        send rig
          (Wire.Create_open { dir = d; name = "late"; excl = false; trunc = false })
      in
      ignore (call rig (Wire.Rmdir_commit { dir = d }));
      match Rpc.await ~from:rig.client_core
              ~costs:config.Hare_config.Config.costs ~span parked
      with
      | Error Errno.ENOENT -> ()
      | Ok _ | Error _ -> Alcotest.fail "parked create must fail with ENOENT")

(* A parked create replays as it was received: addressed to its own
   home and sent by client 1, although client 0 sends the abort that
   releases it. So the create registers client 1 for the entry, and
   client 0's unlink calls client 1 back. *)
let test_parked_create_keeps_addressing () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      ignore (call rig (Wire.Rmdir_prepare { dir = d }));
      let parked, span =
        send rig (Wire.Create_open { dir = d; name = "late"; excl = false; trunc = false })
      in
      Core_res.compute rig.client_core 100_000;
      ignore (call ~from:rig.client0 rig (Wire.Rmdir_abort { dir = d }));
      (match Rpc.await ~from:rig.client_core ~costs:config.Hare_config.Config.costs ~span parked with
      | Ok (Wire.P_open_ino { entry; _ }) ->
          Alcotest.(check int) "inode in home 0" 0 entry.t_ino.Types.server
      | Ok _ | Error _ -> Alcotest.fail "the replayed create should succeed");
      let before = Server.invals_sent rig.server in
      (match call ~from:rig.client0 rig (Wire.Rm_map { dir = d; name = "late"; only_if = None }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "the entry is in home 0's shard");
      Alcotest.(check int) "client 1 called back" (before + 1)
        (Server.invals_sent rig.server))

let test_rmdir_lock_serializes () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      (match call rig (Wire.Rmdir_lock { dir = d }) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "first lock");
      (* a competing rmdir waits on the lock *)
      let second, span =
        send rig (Wire.Rmdir_lock { dir = d })
      in
      Core_res.compute rig.client_core 100_000;
      Alcotest.(check bool) "second lock parked" true (Ivar.peek second = None);
      (* winner commits; loser's lock must resolve with ENOENT *)
      ignore (call rig (Wire.Rmdir_prepare { dir = d }));
      ignore (call rig (Wire.Rmdir_commit { dir = d }));
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
              { dir = d; name = "f"; excl = false; trunc = false })
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "create");
      ignore (call rig (Wire.Rmdir_lock { dir = d }));
      (match call rig (Wire.Rmdir_prepare { dir = d }) with
      | Error Errno.ENOTEMPTY -> ()
      | Ok _ | Error _ -> Alcotest.fail "prepare must refuse");
      (* no mark was set: creates proceed immediately *)
      match
        call rig
          (Wire.Create_open
             { dir = d; name = "g"; excl = false; trunc = false })
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "create after refused prepare")

let test_double_prepare_ebusy () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "dir" in
      ignore (call rig (Wire.Rmdir_prepare { dir = d }));
      match call rig (Wire.Rmdir_prepare { dir = d }) with
      | Error Errno.EBUSY -> ()
      | Ok _ | Error _ -> Alcotest.fail "second prepare must be EBUSY")

let test_fd_refcount_keeps_unlinked_inode () =
  let rig = make_rig () in
  in_fiber rig (fun () ->
      let token, ino =
        match
          call rig
            (Wire.Create_open
               { dir = root; name = "f"; excl = true; trunc = false })
        with
        | Ok (Wire.P_open_ino { oi; entry }) -> (oi.Wire.token, entry.t_ino)
        | _ -> Alcotest.fail "create"
      in
      ignore (call rig (Wire.Write_fd { token; off = Some 0; data = "keep"; append = false }));
      (* share it, unlink it *)
      ignore (call rig (Wire.Inc_fd_ref { token; offset = Some 0 }));
      ignore (call rig (Wire.Rm_map { dir = root; name = "f"; only_if = None }));
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
               { dir = root; name = "f"; excl = true; trunc = false })
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
              { dir = root; name = "f"; excl = true; trunc = false }));
      (* the create tracked client 1; an unlink by client 0 must push an
         invalidation to client 1's port *)
      let before = Server.invals_sent rig.server in
      ignore
        (call ~from:rig.client0 rig (Wire.Rm_map { dir = root; name = "f"; only_if = None }));
      Alcotest.(check int) "one invalidation" (before + 1)
        (Server.invals_sent rig.server))

(* A crash's per-directory contract. The parked work dies: a create
   parked behind an rmdir mark and a waiter on a held rmdir lock get
   [EIO], and both count as aborted. The DRAM-resident state survives:
   the shard still lists its entries and a committed tombstone still
   refuses a late create. Tracking is forgotten: a name client 1 looked
   up before the crash calls nobody back when it is removed after. *)
let test_crash_per_directory () =
  let rig = make_rig () in
  let costs = config.Hare_config.Config.costs in
  let await (future, span) = Rpc.await ~from:rig.client_core ~costs ~span future in
  let expect_eio what = function
    | Error Errno.EIO -> ()
    | _ -> Alcotest.fail (what ^ " must die with the server")
  in
  let create_open dir name = Wire.Create_open { dir; name; excl = false; trunc = false } in
  in_fiber rig (fun () ->
      let d = mkdir_raw rig "d" and marked = mkdir_raw rig "marked" in
      let locked = mkdir_raw rig "locked" in
      ignore (call rig (create_open d "x"));
      ignore (call rig (Wire.Lookup { dir = d; name = "x" }));
      (* home 0's shard of a directory whose inode lives at home 1: only
         the tombstone refuses a create after the commit *)
      let remote = { Types.server = 1; ino = 5 } in
      ignore (call rig (Wire.Rmdir_prepare { dir = remote }));
      ignore (call rig (Wire.Rmdir_commit { dir = remote }));
      ignore (call rig (Wire.Rmdir_prepare { dir = marked }));
      let parked = send rig (create_open marked "late") in
      ignore (call rig (Wire.Rmdir_lock { dir = locked }));
      let waiter = send rig (Wire.Rmdir_lock { dir = locked }) in
      Core_res.compute rig.client_core 100_000;
      let aborted () = Hare_stats.Robust.get (Server.robust rig.server) Hare_stats.Robust.aborted in
      let before = aborted () in
      Server.crash rig.server;
      expect_eio "the parked create" (await parked);
      expect_eio "the lock waiter" (await waiter);
      Alcotest.(check int) "both aborted" (before + 2) (aborted ());
      Server.restart rig.server;
      Core_res.compute rig.client_core 100_000;
      Alcotest.(check (list string)) "the shard survives" [ "x" ]
        (List.map fst (Server.shard_entries rig.server d));
      (match call rig (create_open remote "late") with
      | Error Errno.ENOENT -> ()
      | _ -> Alcotest.fail "the tombstone must survive the crash");
      ignore (Hare_msg.Mailbox.drain rig.invals.(1));
      let sent = Server.invals_sent rig.server in
      (match call ~from:rig.client0 rig (Wire.Rm_map { dir = d; name = "x"; only_if = None }) with
      | Ok (Wire.P_removed _) -> ()
      | _ -> Alcotest.fail "rm_map after the restart");
      Alcotest.(check int) "no callback" sent (Server.invals_sent rig.server);
      Alcotest.(check int) "client 1 told nothing" 0
        (List.length (Hare_msg.Mailbox.drain rig.invals.(1))))

(* ---------- two servers ---------------------------------------------- *)

(* Two standalone servers sharing DRAM, each owning [blocks] of it, like
   one machine: A (sid 0) holds the root and home 0; B is [b_sid], the
   peer A steals blocks from. The client runs on core 1, so it is
   client 1. *)
type pair = {
  p_engine : Engine.t;
  a : Server.t;
  b : Server.t;
  p_client : Core_res.t;
  p_invals : Wire.inval Hare_msg.Mailbox.t array;
}

let make_pair ?(config = config) ?(b_sid = 1) ~blocks () =
  let engine = Engine.create () in
  let costs = config.Hare_config.Config.costs in
  let core id = Core_res.create engine ~id ~socket:0 ~ctx_switch:0 in
  let a_core = core 0 and b_core = core 2 and client_core = core 1 in
  let dram = Hare_mem.Dram.create ~nblocks:(2 * blocks) in
  let inval_ports =
    Array.init 2 (fun i ->
        Hare_msg.Mailbox.create ~owner:(if i = 0 then a_core else client_core) ~costs ())
  in
  let server ~sid ~core ~blocks_first =
    let pcache = Hare_mem.Pcache.create dram ~core ~costs ~capacity_lines:256 in
    let s =
      Server.create ~engine ~config ~sid ~core ~pcache ~dram ~blocks_first
        ~blocks_count:blocks ~inval_ports ()
    in
    Server.start s;
    s
  in
  let a = server ~sid:0 ~core:a_core ~blocks_first:0 in
  let b = server ~sid:b_sid ~core:b_core ~blocks_first:blocks in
  Server.install_root a;
  Server.set_peers a [| Server.endpoint a; Server.endpoint b |];
  { p_engine = engine; a; b; p_client = client_core; p_invals = inval_ports }

let pair_fiber p body = run_fiber p.p_engine body

(* Client requests are addressed to home 0. *)
let pair_call p s req = Rpc.call (Server.endpoint s) ~from:p.p_client ~home:0 req

(* Send without waiting: the request may park at the server. *)
let pair_send p s req =
  Rpc.call_async (Server.endpoint s) ~from:p.p_client ~home:0 ~abs_deadline:0L req

let pair_await p (future, span) =
  Rpc.await ~from:p.p_client ~costs:config.Hare_config.Config.costs ~span future

let stealing = { config with Hare_config.Config.block_stealing = true }

let create_inode p =
  match
    pair_call p p.a (Wire.Create_inode { ftype = Types.Reg; dist = false; and_open = false })
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

(* A (sid 0) hosts home 0; B (sid 2, a spare beyond the configuration's
   two homes) hosts nothing until a home is installed on it. *)

(* A migration request names its home as its subject, not its address,
   as the coordinator sends it. *)
let migrate p s req = Rpc.call (Server.endpoint s) ~from:p.p_client req

let migrate_out p = migrate p p.a (Wire.Migrate_out { home = 0 })

let expect_busy what = function
  | Error Errno.EBUSY -> ()
  | _ -> Alcotest.fail (what ^ ": the home must refuse to move")

let expect_packed what = function
  | Ok (Wire.P_pack _) -> ()
  | _ -> Alcotest.fail (what ^ ": the home must move")

(* A pending rmdir mark parks creates on this server's endpoint: the
   home stays put until the mark resolves. *)
let test_migrate_refuses_marked_home () =
  let p = make_pair ~b_sid:2 ~blocks:64 () in
  pair_fiber p (fun () ->
      let dir = { Types.server = 1; ino = 5 } in
      ignore (pair_call p p.a (Wire.Rmdir_prepare { dir }));
      expect_busy "marked" (migrate_out p);
      ignore (pair_call p p.a (Wire.Rmdir_abort { dir }));
      expect_packed "unmarked" (migrate_out p))

(* A request parked behind an in-flight block steal is bound to this
   server too. *)
let test_migrate_refuses_during_steal () =
  let p = make_pair ~config:stealing ~b_sid:2 ~blocks:16 () in
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
  let p = make_pair ~b_sid:2 ~blocks:64 () in
  let a = p.a and b = p.b and client_core = p.p_client and inval_ports = p.p_invals in
  let costs = config.Hare_config.Config.costs in
  let call s req = pair_call p s req in
  let ok what = function Ok _ -> () | Error _ -> Alcotest.fail what in
  let create_open name =
    Wire.Create_open { dir = root; name; excl = false; trunc = false }
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
      ok "lookup" (call a (Wire.Lookup { dir = root; name = "f" }));
      (* home 0's shard of a directory whose inode lives at home 1,
         removed: only the tombstone can refuse a late create *)
      let remote_dir = { Types.server = 1; ino = 5 } in
      ok "prepare" (call a (Wire.Rmdir_prepare { dir = remote_dir }));
      ok "commit" (call a (Wire.Rmdir_commit { dir = remote_dir }));
      (* a completed tagged request *)
      let meta = { Rpc.m_seq = 1; m_ack = 0 } in
      let tagged s =
        let future, span =
          Rpc.call_async (Server.endpoint s) ~from:client_core ~meta ~home:0
            ~abs_deadline:0L
            (create_open "g")
        in
        Rpc.await ~from:client_core ~costs ~span future
      in
      ok "tagged create" (tagged a);
      let before = snapshot a in
      Alcotest.(check int) "no invalidation yet" 0
        (Hare_msg.Mailbox.pending inval_ports.(1));
      let pack =
        match migrate_out p with
        | Ok (Wire.P_pack pack) -> pack
        | _ -> Alcotest.fail "migrate out"
      in
      ok "install" (migrate p b (Wire.Install_shard { home = 0; pack }));
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
      (match call a (Wire.Lookup { dir = root; name = "f" }) with
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
             { dir = remote_dir; name = "x"; excl = false; trunc = false })
      with
      | Error Errno.ENOENT -> ()
      | _ -> Alcotest.fail "the tombstone must refuse the create")

(* A readdir leg answers from the shard's cached listing, rebuilt on the
   first read after a change: after any sequence of entry adds, removes,
   renames and creates, each leg must list exactly what a fresh fold of
   the shard gives ([Server.shard_entries]), in the same order. *)
type dir_op =
  | Add of string * bool  (** [Add_map], [replace] *)
  | Rm of string
  | Rename of string * string
  | Create of string
  | List

let dir_op_gen =
  let open QCheck.Gen in
  let name = map (String.make 1) (char_range 'a' 'h') in
  frequency
    [
      (3, map2 (fun n r -> Add (n, r)) name bool);
      (2, map (fun n -> Rm n) name);
      (2, map2 (fun a b -> Rename (a, b)) name name);
      (2, map (fun n -> Create n) name);
      (2, return List);
    ]

let show_dir_op = function
  | Add (n, r) -> Printf.sprintf "add %s%s" n (if r then "!" else "")
  | Rm n -> "rm " ^ n
  | Rename (a, b) -> Printf.sprintf "mv %s %s" a b
  | Create n -> "create " ^ n
  | List -> "ls"

let prop_readdir_listing =
  QCheck.Test.make ~name:"cached readdir listing = fresh fold" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) dir_op_gen)
       ~print:(fun ops -> String.concat "; " (List.map show_dir_op ops)))
    (fun ops ->
      let rig = make_rig () in
      let next = ref 1000 in
      let target () =
        incr next;
        { Types.server = 0; ino = !next }
      in
      let add ?(replace = false) ?(ino = target ()) name =
        ignore
          (call rig
             (Wire.Add_map
                { dir = root; name; target = ino; ftype = Types.Reg; dist = false;
                  replace }))
      in
      let rm ?only_if name =
        ignore (call rig (Wire.Rm_map { dir = root; name; only_if }))
      in
      let listed () =
        match call rig (Wire.Readdir_shard { dir = root }) with
        | Ok (Wire.P_entries es) -> List.map (fun (e : Wire.entry) -> (e.e_name, e.e_ino)) es
        | _ -> QCheck.Test.fail_report "readdir failed"
      in
      let ok = ref true in
      in_fiber rig (fun () ->
          List.iter
            (fun op ->
              (match op with
              | Add (n, replace) -> add ~replace n
              | Rm n -> rm n
              | Rename (a, b) -> (
                  match call rig (Wire.Lookup { dir = root; name = a }) with
                  | Ok (Wire.P_lookup { t_ino = target; _ }) ->
                      add ~replace:true ~ino:target b;
                      if a <> b then rm ~only_if:target a
                  | _ -> ())
              | Create n ->
                  ignore
                    (call rig
                       (Wire.Create_open { dir = root; name = n; excl = false; trunc = false }))
              | List -> ignore (listed ()));
              if listed () <> Server.shard_entries rig.server root then ok := false)
            ops);
      !ok)

(* ---------- callback sets -------------------------------------------------- *)

(* A fresh shard's record, and the callback set [name] has there after
   [ids] registered in turn. *)
let callback_set ids =
  let d = Hare_server.Home.shard (Hare_server.Home.create 0) root in
  List.iter (fun client -> Hare_server.Home.track d ~name:"n" ~client) ids;
  Tbl.Str.find d.clients "n"

(* Invalidations go out in a callback set's order, each one a message on
   the clock, so the compact set must visit its clients exactly as the
   [Tbl.Int] it replaced did, through the 16 -> 32 -> ... -> 256-bucket
   resizes that 40- to 512-core machines reach. [QCHECK_LONG=1] runs 20
   times as many cases (a CI step). *)
let prop_callback_order =
  QCheck.Test.make ~name:"callback set visits clients in Tbl.Int order"
    ~count:300 ~long_factor:20
    QCheck.(list_of_size Gen.(1 -- 600) (int_range 0 511))
    (fun ids ->
      let tbl = Tbl.Int.create 4 in
      List.iter (fun id -> Tbl.Int.replace tbl id ()) ids;
      let want = List.rev (Tbl.Int.fold (fun id () acc -> id :: acc) tbl []) in
      let got = ref [] in
      Hare_server.Home.iter_clients (fun id -> got := id :: !got) (callback_set ids);
      List.rev !got = want)

(* A name tracked by every client of a 40-core machine costs a few
   words, not a hash table of its own (about 200 words). *)
let test_callback_set_size () =
  let s = callback_set (List.init 40 Fun.id @ List.init 40 Fun.id) in
  let n = ref 0 in
  Hare_server.Home.iter_clients (fun _ -> incr n) s;
  Alcotest.(check int) "each client once" 40 !n;
  let words = Obj.reachable_words (Obj.repr s) in
  if words > 20 then Alcotest.failf "a 40-client callback set takes %d words" words

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "server.rmdir-protocol",
      [
        tc "parked create, abort" `Quick test_create_parked_during_mark_abort;
        tc "parked create, commit" `Quick test_create_parked_during_mark_commit;
        tc "parked create keeps its addressing" `Quick test_parked_create_keeps_addressing;
        tc "lock serializes" `Quick test_rmdir_lock_serializes;
        tc "prepare refuses nonempty" `Quick test_prepare_nonempty_refuses;
        tc "double prepare EBUSY" `Quick test_double_prepare_ebusy;
      ] );
    ("server.crash", [ tc "per-directory state" `Quick test_crash_per_directory ]);
    ( "server.fds",
      [
        tc "unlinked inode survives fds" `Quick test_fd_refcount_keeps_unlinked_inode;
        tc "lazy demotion reply" `Quick test_shared_offset_demotion_reply;
        tc "tracking + invalidation" `Quick test_lookup_tracks_and_invalidates;
      ] );
    ("server.shards", [ QCheck_alcotest.to_alcotest prop_readdir_listing ]);
    ( "server.callbacks",
      [
        QCheck_alcotest.to_alcotest prop_callback_order;
        tc "40 clients, a few words" `Quick test_callback_set_size;
      ] );
    ("server.steal", [ tc "crash keeps the in-flight steal" `Quick test_crash_keeps_inflight_steal ]);
    ( "server.migration",
      [
        tc "home round trip" `Quick test_migration_round_trip;
        tc "marked home refuses" `Quick test_migrate_refuses_marked_home;
        tc "steal in flight refuses" `Quick test_migrate_refuses_during_steal;
      ] );
  ]
