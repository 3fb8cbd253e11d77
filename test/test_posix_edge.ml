(* Remaining POSIX-surface edge cases: dup2 replacement semantics, split
   placement restrictions, fd exhaustion, environment, cwd errors. *)

open Test_util
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
module Config = Hare_config.Config

let test_dup2_replaces_and_closes () =
  ignore
    (run (fun m p ->
         let a = Posix.creat p "/a" in
         ignore (Posix.write p a "AAAA");
         let b = Posix.creat p "/b" in
         ignore (Posix.write p b "B");
         (* dup2 a onto b: b's description is released, writes through the
            new b land in /a at the shared (dup'd) offset *)
         ignore (Posix.dup2 p ~src:a ~dst:b);
         ignore (Posix.write p b "ZZ");
         Posix.close p a;
         Posix.close p b;
         let fd = Posix.openf p "/a" flags_r in
         Alcotest.(check string) "writes continued in /a" "AAAAZZ"
           (Posix.read_all p fd);
         Posix.close p fd;
         let fd = Posix.openf p "/b" flags_r in
         Alcotest.(check string) "/b kept its own data" "B"
           (Posix.read_all p fd);
         Posix.close p fd;
         (* no leaked tokens: /b's original description was closed *)
         let tokens =
           Array.fold_left
             (fun acc s -> acc + Hare_server.Server.open_tokens s)
             0 (Machine.servers m)
         in
         Alcotest.(check int) "no leaked tokens" 0 tokens;
         0))

let test_dup2_same_fd_noop () =
  ignore
    (run (fun _m p ->
         let fd = Posix.creat p "/x" in
         Alcotest.(check int) "same fd" fd (Posix.dup2 p ~src:fd ~dst:fd);
         ignore (Posix.write p fd "ok");
         Posix.close p fd;
         0))

let test_split_placement_avoids_server_cores () =
  let config =
    {
      (small_config ~ncores:4 ~placement:(Config.Split 2) ()) with
      Config.buffer_cache_blocks = 1024;
    }
  in
  let m = Machine.boot config in
  let cores = ref [] in
  Machine.register_program m "where" (fun p _ ->
      cores := p.P.core_id :: !cores;
      0);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        let pids =
          List.init 6 (fun _ -> Posix.spawn p ~prog:"where" ~args:[])
        in
        List.iter (fun pid -> ignore (Posix.waitpid p pid)) pids;
        0)
  in
  Machine.run m;
  ignore init;
  (* servers own cores 0 and 1; applications may only land on 2 and 3 *)
  Alcotest.(check (list int)) "only app cores used" [ 2; 3 ]
    (List.sort_uniq compare !cores)

let test_fd_exhaustion () =
  ignore
    (run (fun _m p ->
         let opened = ref [] in
         (match
            for _ = 0 to 1100 do
              opened := Posix.creat p (Printf.sprintf "/f%d" (List.length !opened)) :: !opened
            done
          with
         | () -> Alcotest.fail "expected EMFILE"
         | exception Errno.Error (Errno.EMFILE, _) -> ());
         List.iter (fun fd -> Posix.close p fd) !opened;
         (* table drained: we can open again *)
         let fd = Posix.creat p "/again" in
         Posix.close p fd;
         0))

let test_env_and_cwd () =
  ignore
    (run (fun _m p ->
         Posix.setenv p "KEY" "v1";
         Posix.setenv p "KEY" "v2";
         Alcotest.(check (option string)) "setenv replaces" (Some "v2")
           (Posix.getenv p "KEY");
         Posix.mkdir p "/w";
         Posix.close p (Posix.creat p "/w/file");
         expect_errno "chdir to file" Errno.ENOTDIR (fun () ->
             Posix.chdir p "/w/file");
         expect_errno "chdir to missing" Errno.ENOENT (fun () ->
             Posix.chdir p "/missing");
         Alcotest.(check string) "cwd unchanged after failures" "/"
           (Posix.getcwd p);
         0))

let test_env_inherited_by_exec () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "envcheck" (fun p _ ->
      match Posix.getenv p "MARKER" with Some "yes" -> 0 | _ -> 1);
  let init, _ =
    Machine.spawn_init m ~name:"t" (fun p _ ->
        Posix.setenv p "MARKER" "yes";
        let pid = Posix.spawn p ~prog:"envcheck" ~args:[] in
        Posix.waitpid p pid)
  in
  Machine.run m;
  Alcotest.(check (option int)) "env crossed exec" (Some 0)
    (Machine.exit_status m init)

let test_utilization_reporting () =
  let m =
    run (fun _m p ->
        let fd = Posix.creat p "/burn" in
        for _ = 1 to 50 do
          ignore (Posix.write p fd (String.make 4096 'u'))
        done;
        Posix.close p fd;
        0)
  in
  let util = Machine.utilization m in
  Alcotest.(check int) "one entry per core" 4 (List.length util);
  List.iter
    (fun (_, u) ->
      Alcotest.(check bool) "fraction in [0,1]" true (u >= 0.0 && u <= 1.0))
    util;
  (* the init core did real work *)
  Alcotest.(check bool) "some core was busy" true
    (List.exists (fun (_, u) -> u > 0.1) util)

(* A freed block comes back on the next allocation, and its old bytes
   must not: a file grown by [ftruncate] or by a write past its end
   reads zeroes wherever it was not written. One file server with a
   16-block partition: the file of 'x' fills the partition, so every
   later block is one it freed. *)
let reuse_script (type p) (api : p Hare_api.Api.t) (p : p) =
  let module Api = Hare_api.Api in
  let bs = Hare_mem.Layout.block_size in
  let contents path =
    let fd = api.Api.openf p path flags_r in
    let s = Api.read_to_eof api p fd in
    api.Api.close p fd;
    s
  in
  let fd = api.Api.openf p "/x" flags_w in
  Api.write_all api p fd (String.make (16 * bs) 'x');
  api.Api.close p fd;
  api.Api.unlink p "/x";
  let size = (3 * bs) + 100 in
  let fd = api.Api.openf p "/t" flags_w in
  api.Api.ftruncate p fd ~size;
  api.Api.close p fd;
  let fd = api.Api.openf p "/w" flags_w in
  ignore (api.Api.lseek p fd ~pos:5000 Types.Seek_set);
  Api.write_all api p fd "abc";
  api.Api.close p fd;
  let fd = api.Api.openf p "/s" flags_w in
  Api.write_all api p fd "hello";
  api.Api.ftruncate p fd ~size:2;
  api.Api.ftruncate p fd ~size:bs;
  ignore (api.Api.lseek p fd ~pos:10_000 Types.Seek_set);
  Api.write_all api p fd "z";
  api.Api.close p fd;
  [ ("/t", contents "/t", String.make size '\000');
    ("/w", contents "/w", String.make 5000 '\000' ^ "abc");
    ("/s", contents "/s", "he" ^ String.make (10_000 - 2) '\000' ^ "z") ]

let test_reused_blocks_read_zero () =
  let config =
    { (small_config ~ncores:4 ~placement:(Config.Split 1) ()) with
      Config.buffer_cache_blocks = 16 }
  in
  let check (module W : Hare_experiments.World.WORLD) =
    let w = W.boot config in
    let got = ref [] in
    let init =
      W.spawn_init w ~name:"reuse" (fun p ->
          got := reuse_script (W.api w) p;
          0)
    in
    W.run w;
    Alcotest.(check (option int)) (W.name ^ " exit status") (Some 0)
      (W.exit_status w init);
    List.iter
      (fun (path, got, want) ->
        Alcotest.(check int) (W.name ^ " " ^ path ^ " size") (String.length want)
          (String.length got);
        String.iteri
          (fun i c ->
            if not (Char.equal c want.[i]) then
              Alcotest.failf "%s %s: byte %d is %C, not %C" W.name path i c
                want.[i])
          got)
      !got
  in
  check (module Hare_experiments.World.Hare_w);
  check (module Hare_experiments.World.Linux_w)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "posix.edge",
      [
        tc "dup2 replaces" `Quick test_dup2_replaces_and_closes;
        tc "dup2 same fd" `Quick test_dup2_same_fd_noop;
        tc "split placement" `Quick test_split_placement_avoids_server_cores;
        tc "fd exhaustion" `Quick test_fd_exhaustion;
        tc "env + cwd errors" `Quick test_env_and_cwd;
        tc "env across exec" `Quick test_env_inherited_by_exec;
        tc "utilization" `Quick test_utilization_reporting;
        tc "reused blocks read as zeroes" `Quick test_reused_blocks_read_zero;
      ] );
  ]
