(* Process-management tests: fork with shared descriptors (§3.4), pipes,
   remote exec with proxies (§3.5), wait and signals. *)

open Test_util
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno

let test_fork_wait () =
  ignore
    (run (fun _m p ->
         let pid = Posix.fork p (fun _child -> 42) in
         Alcotest.(check int) "status" 42 (Posix.waitpid p pid);
         0))

let test_fork_shared_offset () =
  (* The paper's canonical case: a file descriptor shared across fork must
     keep one offset for both processes. *)
  ignore
    (run (fun _m p ->
         let fd = Posix.creat p "/log" in
         ignore (Posix.write p fd "parent-1 ");
         let pid =
           Posix.fork p (fun child ->
               ignore (Posix.write child fd "child-1 ");
               ignore (Posix.write child fd "child-2 ");
               0)
         in
         ignore (Posix.waitpid p pid);
         ignore (Posix.write p fd "parent-2");
         Posix.close p fd;
         let fd = Posix.openf p "/log" flags_r in
         let s = Posix.read_all p fd in
         Posix.close p fd;
         Alcotest.(check string) "no overwrites"
           "parent-1 child-1 child-2 parent-2" s;
         0))

let test_fork_shared_read_offset () =
  ignore
    (run (fun _m p ->
         let fd = Posix.creat p "/data" in
         ignore (Posix.write p fd "aabbcc");
         Posix.close p fd;
         let fd = Posix.openf p "/data" flags_r in
         let child_got = Buffer.create 4 in
         let pid =
           Posix.fork p (fun child ->
               Buffer.add_string child_got (Posix.read child fd ~len:2);
               0)
         in
         ignore (Posix.waitpid p pid);
         let parent_got = Posix.read p fd ~len:2 in
         Posix.close p fd;
         Alcotest.(check string) "child read first pair" "aa"
           (Buffer.contents child_got);
         Alcotest.(check string) "parent continues at shared offset" "bb"
           parent_got;
         0))

let test_offset_demotion_after_child_exit () =
  ignore
    (run (fun _m p ->
         let fd = Posix.creat p "/demote" in
         ignore (Posix.write p fd "0123456789");
         let pid = Posix.fork p (fun _child -> 0) in
         ignore (Posix.waitpid p pid);
         (* Child's exit closed its copy; our next operations go through
            the server once, then migrate back to local mode. Everything
            must stay consistent either way. *)
         ignore (Posix.lseek p fd ~pos:2 Types.Seek_set);
         Alcotest.(check string) "post-demotion read" "2345"
           (Posix.read p fd ~len:4);
         Alcotest.(check string) "second read local" "6789"
           (Posix.read p fd ~len:4);
         Posix.close p fd;
         0))

(* Write through a descriptor shared with a forked child, then read the
   file back through a fresh descriptor. *)
let shared_fd_contents ~direct ~flags body =
  let config = { (small_config ()) with Config.direct_access = direct } in
  let got = ref "" in
  ignore
    (run ~config (fun _m p ->
         let fd = Posix.openf p "/shared" flags in
         body p fd;
         Posix.close p fd;
         let fd = Posix.openf p "/shared" flags_r in
         got := Posix.read_all p fd;
         Posix.close p fd;
         0));
  !got

let test_shared_size_kept () =
  (* Neither a second fork nor an fsync of an already-shared descriptor
     may push the parent's stale size view: the server's size is
     authoritative once the offset is shared (§3.4). *)
  let second_fork p _fd = ignore (Posix.waitpid p (Posix.fork p (fun _ -> 0))) in
  List.iter
    (fun (what, step) ->
      List.iter
        (fun direct ->
          let got =
            shared_fd_contents ~direct ~flags:Types.flags_w (fun p fd ->
                ignore (Posix.write p fd "aa");
                let pid =
                  Posix.fork p (fun child ->
                      ignore (Posix.write child fd "bb");
                      0)
                in
                ignore (Posix.waitpid p pid);
                step p fd)
          in
          Alcotest.(check string) (Printf.sprintf "%s, direct=%b" what direct)
            "aabb" got)
        [ true; false ])
    [ ("second fork", second_fork); ("fsync", Posix.fsync) ]

let test_shared_append () =
  (* O_APPEND on a shared descriptor writes at end-of-file, wherever the
     shared offset points. *)
  List.iter
    (fun direct ->
      let got =
        shared_fd_contents ~direct ~flags:Types.flags_a (fun p fd ->
            ignore (Posix.write p fd "aa");
            let pid =
              Posix.fork p (fun child ->
                  ignore (Posix.lseek child fd ~pos:0 Types.Seek_set);
                  ignore (Posix.write child fd "bb");
                  0)
            in
            ignore (Posix.waitpid p pid))
      in
      Alcotest.(check string) (Printf.sprintf "direct=%b" direct) "aabb" got)
    [ true; false ]

let test_pipe_basic () =
  ignore
    (run (fun _m p ->
         let rfd, wfd = Posix.pipe p in
         ignore (Posix.write p wfd "through the pipe");
         Alcotest.(check string) "data" "through the pipe"
           (Posix.read p rfd ~len:100);
         Posix.close p wfd;
         Alcotest.(check string) "EOF after writer close" ""
           (Posix.read p rfd ~len:10);
         Posix.close p rfd;
         0))

let test_pipe_blocking_reader () =
  ignore
    (run (fun _m p ->
         let rfd, wfd = Posix.pipe p in
         let pid =
           Posix.fork p (fun child ->
               (* Reader blocks until the parent writes. *)
               let s = Posix.read child rfd ~len:5 in
               Posix.close child rfd;
               Posix.close child wfd;
               if s = "hello" then 0 else 1)
         in
         ignore (Posix.write p wfd "hello");
         let st = Posix.waitpid p pid in
         Alcotest.(check int) "reader saw data" 0 st;
         Posix.close p rfd;
         Posix.close p wfd;
         0))

let test_pipe_epipe () =
  ignore
    (run (fun _m p ->
         let rfd, wfd = Posix.pipe p in
         Posix.close p rfd;
         expect_errno "EPIPE" Errno.EPIPE (fun () -> Posix.write p wfd "x");
         Posix.close p wfd;
         0))

let test_pipe_capacity_blocks_writer () =
  ignore
    (run (fun _m p ->
         let rfd, wfd = Posix.pipe p in
         let chunk = String.make 40_000 'z' in
         let pid =
           Posix.fork p (fun child ->
               (* Two 40k writes exceed the 64k pipe buffer: the second
                  blocks until the parent drains. *)
               ignore (Posix.write child wfd chunk);
               ignore (Posix.write child wfd chunk);
               Posix.close child wfd;
               Posix.close child rfd;
               0)
         in
         let total = ref 0 in
         while !total < 80_000 do
           let s = Posix.read p rfd ~len:8192 in
           if s = "" then total := max_int else total := !total + String.length s
         done;
         Alcotest.(check int) "drained both chunks" 80_000 !total;
         ignore (Posix.waitpid p pid);
         Posix.close p rfd;
         Posix.close p wfd;
         0))

let test_exec_runs_on_other_core () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  let where = ref (-1) in
  Machine.register_program m "whoami" (fun p _ ->
      where := p.P.core_id;
      0);
  let init, _ =
    Machine.spawn_init m ~name:"init" (fun p _ ->
        (* Round-robin placement: consecutive execs land on different
           cores. *)
        let pid1 = Posix.spawn p ~prog:"whoami" ~args:[] in
        ignore (Posix.waitpid p pid1);
        let first = !where in
        let pid2 = Posix.spawn p ~prog:"whoami" ~args:[] in
        ignore (Posix.waitpid p pid2);
        if first <> !where then 0 else 1)
  in
  Machine.run m;
  Alcotest.(check (option int)) "placement spread" (Some 0)
    (Machine.exit_status m init)

let test_exec_console_relay () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "greeter" (fun p args ->
      Posix.print p ("hello from " ^ String.concat "," args);
      0);
  let init, console =
    Machine.spawn_init m ~name:"init" (fun p _ ->
        let pid = Posix.spawn p ~prog:"greeter" ~args:[ "afar" ] in
        Posix.waitpid p pid)
  in
  Machine.run m;
  Alcotest.(check (option int)) "status" (Some 0) (Machine.exit_status m init);
  Alcotest.(check string) "output relayed through proxy" "hello from afar"
    (Buffer.contents console)

let test_exec_unknown_program () =
  ignore
    (run (fun _m p ->
         let pid = Posix.spawn p ~prog:"no-such-binary" ~args:[] in
         let st = Posix.waitpid p pid in
         (* the child's exec fails; the child exits nonzero *)
         Alcotest.(check bool) "nonzero" true (st <> 0);
         0))

let test_exec_inherits_fds_and_cwd () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "appender" (fun p _ ->
      (* fd 3 was opened by the parent before exec; cwd was /work. *)
      ignore (Posix.write p 3 "+exec");
      Posix.close p 3;
      if Posix.getcwd p = "/work" && Posix.exists p "marker" then 0 else 1);
  let init, _ =
    Machine.spawn_init m ~name:"init" (fun p _ ->
        Posix.mkdir p "/work";
        Posix.chdir p "/work";
        Posix.close p (Posix.creat p "marker");
        let fd = Posix.creat p "/work/out" in
        Alcotest.(check int) "fd number" 3 fd;
        ignore (Posix.write p fd "parent");
        let pid = Posix.spawn p ~prog:"appender" ~args:[] in
        let st = Posix.waitpid p pid in
        Posix.close p fd;
        let fd = Posix.openf p "/work/out" flags_r in
        let s = Posix.read_all p fd in
        Posix.close p fd;
        Alcotest.(check string) "shared offset across exec" "parent+exec" s;
        st)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "status" (Some 0) (Machine.exit_status m init)

let test_exec_pipe_jobserver_idiom () =
  (* The make jobserver pattern (§5.2): a token pipe shared between a
     parent and its remotely exec'd children. *)
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "jobworker" (fun p _ ->
      (* Take a token, "work", return the token. *)
      let tok = Posix.read p 3 ~len:1 in
      if tok = "" then 1
      else begin
        Posix.compute p 1000;
        ignore (Posix.write p 4 tok);
        0
      end);
  let init, _ =
    Machine.spawn_init m ~name:"make" (fun p _ ->
        let rfd, wfd = Posix.pipe p in
        Alcotest.(check (pair int int)) "pipe fds" (3, 4) (rfd, wfd);
        (* two job slots *)
        ignore (Posix.write p wfd "ab");
        let pids =
          List.init 4 (fun _ -> Posix.spawn p ~prog:"jobworker" ~args:[])
        in
        let bad = List.filter (fun pid -> Posix.waitpid p pid <> 0) pids in
        (* both tokens must have come back *)
        let back = Posix.read p rfd ~len:2 in
        Posix.close p rfd;
        Posix.close p wfd;
        if bad = [] && String.length back = 2 then 0 else 1)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "jobserver ran" (Some 0)
    (Machine.exit_status m init)

let test_wait_any () =
  ignore
    (run (fun _m p ->
         let a = Posix.fork p (fun _ -> 1) in
         let b = Posix.fork p (fun _ -> 2) in
         let p1, s1 = Posix.wait p in
         let p2, s2 = Posix.wait p in
         let got = List.sort compare [ (p1, s1); (p2, s2) ] in
         Alcotest.(check (list (pair int int)))
           "both reaped"
           (List.sort compare [ (a, 1); (b, 2) ])
           got;
         expect_errno "no more children" Errno.ECHILD (fun () -> Posix.wait p);
         0))

let test_waitpid_out_of_order () =
  ignore
    (run (fun _m p ->
         let fast = Posix.fork p (fun _ -> 10) in
         let slow =
           Posix.fork p (fun c ->
               Posix.compute c 100_000;
               20)
         in
         (* Wait for the slow one first; the fast one's status must not be
            lost. *)
         Alcotest.(check int) "slow" 20 (Posix.waitpid p slow);
         Alcotest.(check int) "fast (stashed)" 10 (Posix.waitpid p fast);
         0))

let test_signal_handler () =
  ignore
    (run (fun _m p ->
         let got = ref 0 in
         let child =
           Posix.fork p (fun c ->
               Hare_proc.Process.install_handler c ~signal:10 (fun s -> got := s);
               (* Wait until the signal arrives. *)
               while !got = 0 do
                 Posix.compute c 1000
               done;
               0)
         in
         Posix.compute p 5_000;
         Posix.kill p child 10;
         Alcotest.(check int) "child saw handler" 0 (Posix.waitpid p child);
         Alcotest.(check int) "signal number" 10 !got;
         0))

let test_signal_kill_default () =
  ignore
    (run (fun _m p ->
         let child =
           Posix.fork p (fun c ->
               while not c.P.killed do
                 Posix.compute c 1000
               done;
               7)
         in
         Posix.compute p 5_000;
         Posix.kill p child Hare_proc.Process.sigterm;
         Alcotest.(check int) "terminated" 7 (Posix.waitpid p child);
         0))

let test_signal_relay_through_proxy () =
  let config = small_config ~ncores:4 () in
  let m = Machine.boot config in
  Machine.register_program m "patient" (fun p _ ->
      while not p.P.killed do
        Posix.compute p 1000
      done;
      3);
  let init, _ =
    Machine.spawn_init m ~name:"init" (fun p _ ->
        (* fork a child that execs remotely; signal the *proxy* pid we
           know — the proxy must relay to the real process (§3.5). *)
        let proxy_pid = Posix.spawn p ~prog:"patient" ~args:[] in
        Posix.compute p 50_000;
        Posix.kill p proxy_pid Hare_proc.Process.sigterm;
        Posix.waitpid p proxy_pid)
  in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check (option int)) "relayed kill" (Some 3)
    (Machine.exit_status m init)

let test_esrch () =
  ignore
    (run (fun _m p ->
         expect_errno "no such pid" Errno.ESRCH (fun () ->
             Posix.kill p 999_999_999 9);
         0))

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "proc.fork",
      [
        tc "fork + waitpid" `Quick test_fork_wait;
        tc "shared write offset" `Quick test_fork_shared_offset;
        tc "shared read offset" `Quick test_fork_shared_read_offset;
        tc "offset demotion" `Quick test_offset_demotion_after_child_exit;
        tc "shared size kept" `Quick test_shared_size_kept;
        tc "O_APPEND on a shared fd" `Quick test_shared_append;
      ] );
    ( "proc.pipe",
      [
        tc "basic + EOF" `Quick test_pipe_basic;
        tc "blocking reader" `Quick test_pipe_blocking_reader;
        tc "EPIPE" `Quick test_pipe_epipe;
        tc "capacity backpressure" `Quick test_pipe_capacity_blocks_writer;
      ] );
    ( "proc.exec",
      [
        tc "placement across cores" `Quick test_exec_runs_on_other_core;
        tc "console relay" `Quick test_exec_console_relay;
        tc "unknown program" `Quick test_exec_unknown_program;
        tc "fds + cwd inherited" `Quick test_exec_inherits_fds_and_cwd;
        tc "jobserver idiom" `Quick test_exec_pipe_jobserver_idiom;
      ] );
    ( "proc.wait",
      [
        tc "wait any" `Quick test_wait_any;
        tc "waitpid out of order" `Quick test_waitpid_out_of_order;
      ] );
    ( "proc.signal",
      [
        tc "handler" `Quick test_signal_handler;
        tc "default kill" `Quick test_signal_kill_default;
        tc "proxy relay" `Quick test_signal_relay_through_proxy;
        tc "ESRCH" `Quick test_esrch;
      ] );
  ]
