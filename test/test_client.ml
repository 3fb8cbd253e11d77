(* Client-library behaviour tests: the directory cache and its
   invalidation protocol, creation affinity placement, the RPC-mode data
   path, and the close-to-open visibility rules — observed through RPC
   and cache counters on a live machine. *)

open Test_util
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
module Config = Hare_config.Config
module Client = Hare_client.Client
module Dircache = Hare_client.Dircache
module Server = Hare_server.Server

let client_of m p = (Machine.clients m).(p.P.core_id)

(* Round-robin placement starts at core 0 — the init core. Burn one slot
   so the next spawn really lands on another core. *)
let skip_own_core m p =
  Machine.register_program m "nop" (fun _ _ -> 0);
  let pid = Posix.spawn p ~prog:"nop" ~args:[] in
  ignore (Posix.waitpid p pid)

let test_dircache_saves_rpcs () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "remote-create" (fun p _ ->
      Posix.mkdir p "/dir";
      Posix.close p (Posix.creat p "/dir/file");
      0);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        skip_own_core m p;
        let pid = Posix.spawn p ~prog:"remote-create" ~args:[] in
        (match Posix.waitpid p pid with 0 -> () | n -> Posix.exit p n);
        (* this core never saw /dir/file: the first stat pays lookup RPCs,
           the second resolves from the directory cache *)
        let c = client_of m p in
        let before = Client.rpc_count c in
        ignore (Posix.stat p "/dir/file");
        let first = Client.rpc_count c - before in
        let before = Client.rpc_count c in
        ignore (Posix.stat p "/dir/file");
        let second = Client.rpc_count c - before in
        if second >= first then Posix.exit p 10;
        if second <> 1 then Posix.exit p 11;
        if Dircache.hits (Client.dircache c) = 0 then Posix.exit p 12;
        0)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "cache saves RPCs" (Some 0)
    (Machine.exit_status m init)

(* Two clients that look one name up both cache the record the server's
   shard holds, not a copy each: their entries are the same value. *)
let test_dircache_shares_server_record () =
  let config = small_config ~ncores:4 ~exec_policy:Config.Round_robin () in
  let m = Machine.boot config in
  let cores = ref [] in
  Machine.register_program m "stat" (fun p _ ->
      ignore (Posix.stat p "/dir/file");
      cores := p.P.core_id :: !cores;
      0);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        Posix.mkdir p "/dir";
        Posix.close p (Posix.creat p "/dir/file");
        skip_own_core m p;
        List.init 2 (fun _ -> Posix.spawn p ~prog:"stat" ~args:[])
        |> List.iter (fun pid -> ignore (Posix.waitpid p pid));
        0)
  in
  Machine.run m;
  Alcotest.(check (option int)) "init exits" (Some 0) (Machine.exit_status m init);
  let cached core ~dir ~name =
    match Dircache.find (Client.dircache (Machine.clients m).(core)) ~dir ~name with
    | Some e -> e
    | None -> Alcotest.failf "core %d has no %s" core name
  in
  match !cores with
  | [ a; b ] when a <> b ->
      let root = Types.root_ino in
      let da = cached a ~dir:root ~name:"dir" in
      Alcotest.(check bool) "one record for /dir" true (da == cached b ~dir:root ~name:"dir");
      let dir = da.Hare_proto.Wire.t_ino in
      Alcotest.(check bool) "one record for /dir/file" true
        (cached a ~dir ~name:"file" == cached b ~dir ~name:"file")
  | _ -> Alcotest.fail "two children on two cores"

let test_dircache_disabled_no_savings () =
  let config =
    { (small_config ()) with Config.dir_cache = false }
  in
  ignore
    (run ~config (fun m p ->
         Posix.mkdir p "/dir";
         Posix.close p (Posix.creat p "/dir/file");
         let c = client_of m p in
         let before = Client.rpc_count c in
         ignore (Posix.stat p "/dir/file");
         let first = Client.rpc_count c - before in
         let before = Client.rpc_count c in
         ignore (Posix.stat p "/dir/file");
         let second = Client.rpc_count c - before in
         Alcotest.(check int) "same cost every time" first second;
         0))

let test_invalidation_on_remote_unlink () =
  (* A cross-core unlink must invalidate this core's cached entry: the
     next stat reports ENOENT rather than serving the stale mapping. *)
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "remote-unlink" (fun p _ ->
      Posix.unlink p "/shared/victim";
      0);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        skip_own_core m p;
        Posix.mkdir p ~dist:true "/shared";
        Posix.close p (Posix.creat p "/shared/victim");
        ignore (Posix.stat p "/shared/victim") (* now cached *);
        let pid = Posix.spawn p ~prog:"remote-unlink" ~args:[] in
        (match Posix.waitpid p pid with 0 -> () | n -> Posix.exit p n);
        match Posix.stat p "/shared/victim" with
        | (_ : Types.attr) -> 1 (* stale cache served a dead entry! *)
        | exception Hare_proto.Errno.Error (Errno.ENOENT, _) -> 0)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "saw invalidation" (Some 0)
    (Machine.exit_status m init);
  Alcotest.(check bool) "server sent invalidations" true
    (Machine.total_invals m > 0)

let test_invalidation_on_remote_rename () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "remote-rename" (fun p _ ->
      Posix.rename p "/shared/old" "/shared/new";
      0);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        skip_own_core m p;
        Posix.mkdir p ~dist:true "/shared";
        let fd = Posix.creat p "/shared/old" in
        ignore (Posix.write p fd "moved");
        Posix.close p fd;
        ignore (Posix.stat p "/shared/old");
        let pid = Posix.spawn p ~prog:"remote-rename" ~args:[] in
        (match Posix.waitpid p pid with 0 -> () | n -> Posix.exit p n);
        if Posix.exists p "/shared/old" then 1
        else
          let fd = Posix.openf p "/shared/new" flags_r in
          let s = Posix.read_all p fd in
          Posix.close p fd;
          if s = "moved" then 0 else 2)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "rename visible, no stale entry" (Some 0)
    (Machine.exit_status m init)

let test_creation_affinity_local_placement () =
  (* With affinity on and the entry hashing to a far server, the inode
     must land on the creating core's designated local server. *)
  let config =
    { (small_config ~ncores:4 ()) with Config.cores_per_socket = 1 }
  in
  ignore
    (run ~config (fun _m p ->
         Posix.mkdir p ~dist:true "/spread";
         (* create many files; with 1 core per socket every cross-server
            entry is "far", so every inode should live on the creator's
            local server (the init core's). *)
         for i = 1 to 16 do
           Posix.close p (Posix.creat p (Printf.sprintf "/spread/f%d" i))
         done;
         let homes =
           List.init 16 (fun i ->
               (Posix.stat p (Printf.sprintf "/spread/f%d" (i + 1))).Types.a_ino
                 .Types.server)
           |> List.sort_uniq compare
         in
         (* all inodes on at most 2 servers: the local one, plus the cases
            where the entry already hashed to it *)
         Alcotest.(check bool)
           (Format.asprintf "inodes clustered (%a)" Fmt.(list ~sep:comma int) homes)
           true
           (List.length homes <= 2);
         0))

let test_no_affinity_spreads_inodes () =
  let config =
    {
      (small_config ~ncores:4 ()) with
      Config.cores_per_socket = 1;
      creation_affinity = false;
    }
  in
  ignore
    (run ~config (fun _m p ->
         Posix.mkdir p ~dist:true "/spread";
         for i = 1 to 24 do
           Posix.close p (Posix.creat p (Printf.sprintf "/spread/f%d" i))
         done;
         let homes =
           List.init 24 (fun i ->
               (Posix.stat p (Printf.sprintf "/spread/f%d" (i + 1))).Types.a_ino
                 .Types.server)
           |> List.sort_uniq compare
         in
         Alcotest.(check bool) "inodes on several servers" true
           (List.length homes > 2);
         0))

let test_rpc_mode_io () =
  (* direct_access off: all data through Read_fd/Write_fd RPCs; same
     observable semantics. *)
  let config = { (small_config ()) with Config.direct_access = false } in
  ignore
    (run ~config (fun _m p ->
         let fd = Posix.creat p "/rpc" in
         ignore (Posix.write p fd "via the server");
         ignore (Posix.lseek p fd ~pos:4 Types.Seek_set);
         Alcotest.(check string) "positioned read" "the" (Posix.read p fd ~len:3);
         Posix.close p fd;
         let a = Posix.stat p "/rpc" in
         Alcotest.(check int) "size tracked by server" 14 a.Types.a_size;
         0))

let test_direct_mode_fewer_rpcs_than_rpc_mode () =
  let count_write_rpcs config =
    let m = Machine.boot config in
    let counted = ref 0 in
    let init, _ =
      Machine.spawn_init m ~name:"t" (fun p _ ->
          let fd = Posix.creat p "/f" in
          let before =
            Array.fold_left
              (fun acc c -> acc + Client.rpc_count c)
              0 (Machine.clients m)
          in
          for _ = 1 to 10 do
            ignore (Posix.write p fd (String.make 4096 'x'));
            ignore (Posix.lseek p fd ~pos:0 Types.Seek_set)
          done;
          counted :=
            Array.fold_left
              (fun acc c -> acc + Client.rpc_count c)
              0 (Machine.clients m)
            - before;
          Posix.close p fd;
          0)
    in
    Machine.run m;
    ignore init;
    !counted
  in
  let direct = count_write_rpcs (small_config ()) in
  let rpc =
    count_write_rpcs { (small_config ()) with Config.direct_access = false }
  in
  Alcotest.(check bool)
    (Printf.sprintf "direct(%d) << rpc-mode(%d)" direct rpc)
    true
    (direct * 3 < rpc)

let test_close_to_open_requires_close () =
  (* Data written but not yet closed/fsynced stays in the writer's
     private cache: the server still reports the old size and the shared
     DRAM still holds zeroes. close publishes both. (A fork/spawn would
     publish too — the §3.4 share semantics — so we inspect the machine
     directly rather than using a second process.) *)
  ignore
    (run (fun m p ->
         let fd = Posix.creat p "/c2o" in
         ignore (Posix.write p fd "payload!");
         Alcotest.(check int) "server size before close" 0
           (Posix.stat p "/c2o").Types.a_size;
         Posix.close p fd;
         Alcotest.(check int) "server size after close" 8
           (Posix.stat p "/c2o").Types.a_size;
         (* and the bytes are really in DRAM now *)
         let fd = Posix.openf p "/c2o" flags_r in
         Alcotest.(check string) "content" "payload!" (Posix.read_all p fd);
         Posix.close p fd;
         ignore m;
         0))

(* Close-to-open invalidates the file's cached lines at every open, and
   the core opening the file may hold another descriptor's unflushed
   writes to it: the open writes them back instead of dropping them. *)
let test_reopen_keeps_unflushed_writes () =
  List.iter
    (fun direct ->
      let config = { (small_config ()) with Config.direct_access = direct } in
      ignore
        (run ~config (fun _m p ->
             let fd = Posix.creat p "/f" in
             ignore (Posix.write p fd "abc");
             Posix.close p (Posix.openf p "/f" flags_r);
             Posix.close p fd;
             let fd = Posix.openf p "/f" flags_r in
             Alcotest.(check string)
               (Printf.sprintf "direct=%b: contents" direct)
               "abc" (Posix.read_all p fd);
             Posix.close p fd;
             0)))
    [ true; false ]

let test_fsync_publishes_without_close () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "peek" (fun p args ->
      let expect = List.hd args in
      let fd = Posix.openf p "/s" flags_r in
      let s = Posix.read_all p fd in
      Posix.close p fd;
      if s = expect then 0 else 1);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        skip_own_core m p;
        let fd = Posix.creat p "/s" in
        ignore (Posix.write p fd "synced");
        Posix.fsync p fd;
        let pid = Posix.spawn p ~prog:"peek" ~args:[ "synced" ] in
        let st = Posix.waitpid p pid in
        Posix.close p fd;
        st)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "fsync made data visible" (Some 0)
    (Machine.exit_status m init)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "client.dircache",
      [
        tc "cache saves RPCs" `Quick test_dircache_saves_rpcs;
        tc "clients share the server's record" `Quick test_dircache_shares_server_record;
        tc "disabled: no savings" `Quick test_dircache_disabled_no_savings;
        tc "remote unlink invalidates" `Quick test_invalidation_on_remote_unlink;
        tc "remote rename invalidates" `Quick test_invalidation_on_remote_rename;
      ] );
    ( "client.affinity",
      [
        tc "local placement" `Quick test_creation_affinity_local_placement;
        tc "off: spreads" `Quick test_no_affinity_spreads_inodes;
      ] );
    ( "client.datapath",
      [
        tc "rpc-mode io" `Quick test_rpc_mode_io;
        tc "direct saves RPCs" `Quick test_direct_mode_fewer_rpcs_than_rpc_mode;
        tc "close-to-open boundary" `Quick test_close_to_open_requires_close;
        tc "fsync publishes" `Quick test_fsync_publishes_without_close;
        tc "reopen keeps unflushed writes" `Quick test_reopen_keeps_unflushed_writes;
      ] );
  ]
