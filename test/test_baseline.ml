(* Tests for the comparison worlds: the shared-memory Linux baseline
   (Lfs/Linux_world) and the kernel-lock model (Slock). *)

module L = Hare_baseline.Linux_world
module Lfs = Hare_baseline.Lfs
module Slock = Hare_baseline.Slock
module Config = Hare_config.Config
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
module Api = Hare_api.Api
open Hare_sim

let config = Test_util.small_config ~ncores:4 ()

let run_linux body =
  let w = L.boot config in
  let api = L.api w in
  let init, _console = L.spawn_init w ~name:"test" (fun p -> body w api p) in
  L.run w;
  Alcotest.(check (option int)) "exit status" (Some 0) (L.exit_status w init)

let test_linux_file_roundtrip () =
  run_linux (fun _w api p ->
      let fd = api.Api.openf p "/f" Types.flags_w in
      ignore (api.Api.write p fd "linux data");
      api.Api.close p fd;
      let fd = api.Api.openf p "/f" Types.flags_r in
      let s = api.Api.read p fd ~len:100 in
      api.Api.close p fd;
      Alcotest.(check string) "roundtrip" "linux data" s;
      0)

let test_linux_namespace () =
  run_linux (fun _w api p ->
      api.Api.mkdir p ~dist:false "/d";
      api.Api.mkdir p ~dist:false "/d/e";
      let fd = api.Api.openf p "/d/e/f" Types.flags_w in
      ignore (api.Api.write p fd "x");
      api.Api.close p fd;
      api.Api.rename p "/d/e/f" "/d/g";
      Alcotest.(check bool) "renamed" true (api.Api.exists p "/d/g");
      api.Api.unlink p "/d/g";
      api.Api.rmdir p "/d/e";
      api.Api.rmdir p "/d";
      Alcotest.(check bool) "cleaned" false (api.Api.exists p "/d");
      0)

let test_linux_rmdir_nonempty () =
  run_linux (fun _w api p ->
      api.Api.mkdir p ~dist:false "/d";
      let fd = api.Api.openf p "/d/f" Types.flags_w in
      api.Api.close p fd;
      (match api.Api.rmdir p "/d" with
      | () -> Alcotest.fail "expected ENOTEMPTY"
      | exception Errno.Error (Errno.ENOTEMPTY, _) -> ());
      api.Api.unlink p "/d/f";
      api.Api.rmdir p "/d";
      0)

let test_linux_fork_shared_fd () =
  (* Kernel file objects: fork shares the offset through plain shared
     memory — no RPCs, but the same observable semantics as Hare. *)
  run_linux (fun _w api p ->
      let fd = api.Api.openf p "/log" Types.flags_w in
      ignore (api.Api.write p fd "p1 ");
      let pid =
        api.Api.fork p (fun c ->
            ignore (api.Api.write c fd "c1 ");
            0)
      in
      ignore (api.Api.waitpid p pid);
      ignore (api.Api.write p fd "p2");
      api.Api.close p fd;
      let fd = api.Api.openf p "/log" Types.flags_r in
      let s = api.Api.read p fd ~len:100 in
      api.Api.close p fd;
      Alcotest.(check string) "shared offset" "p1 c1 p2" s;
      0)

let test_linux_fork_spreads_cores () =
  run_linux (fun _w api p ->
      let cores = ref [] in
      let pids =
        List.init 4 (fun _ ->
            api.Api.fork p (fun c ->
                cores := api.Api.core_of c :: !cores;
                0))
      in
      List.iter (fun pid -> ignore (api.Api.waitpid p pid)) pids;
      Alcotest.(check bool) "children on several cores" true
        (List.length (List.sort_uniq compare !cores) > 1);
      0)

let test_linux_pipe () =
  run_linux (fun _w api p ->
      let rfd, wfd = api.Api.pipe p in
      let pid =
        api.Api.fork p (fun c ->
            let s = api.Api.read c rfd ~len:5 in
            if s = "hello" then 0 else 1)
      in
      ignore (api.Api.write p wfd "hello");
      let st = api.Api.waitpid p pid in
      api.Api.close p rfd;
      api.Api.close p wfd;
      st)

let test_linux_unlinked_open_file () =
  run_linux (fun _w api p ->
      let fd = api.Api.openf p "/gone" Types.flags_w in
      ignore (api.Api.write p fd "still here");
      api.Api.unlink p "/gone";
      Alcotest.(check bool) "no longer visible" false (api.Api.exists p "/gone");
      ignore (api.Api.lseek p fd ~pos:0 Types.Seek_set);
      Alcotest.(check string) "still readable" "still here"
        (api.Api.read p fd ~len:100);
      api.Api.close p fd;
      0)

let test_slock_mutual_exclusion () =
  let engine = Engine.create () in
  let core0 = Core_res.create engine ~id:0 ~socket:0 ~ctx_switch:0 in
  let core1 = Core_res.create engine ~id:1 ~socket:0 ~ctx_switch:0 in
  let lock = Slock.create ~name:"test" in
  let trace = ref [] in
  let worker name core =
    ignore
      (Engine.spawn engine ~name (fun () ->
           Slock.acquire lock ~core ~cost:10;
           trace := (name ^ "+") :: !trace;
           Core_res.compute core 1000;
           trace := (name ^ "-") :: !trace;
           Slock.release lock))
  in
  worker "a" core0;
  worker "b" core1;
  Engine.run engine;
  (* critical sections must not interleave *)
  (match List.rev !trace with
  | [ "a+"; "a-"; "b+"; "b-" ] | [ "b+"; "b-"; "a+"; "a-" ] -> ()
  | other -> Alcotest.fail ("interleaved: " ^ String.concat "," other));
  Alcotest.(check int) "one waiter contended" 1 (Slock.contended lock)

let test_slock_queue_delay_costs_time () =
  let engine = Engine.create () in
  let core0 = Core_res.create engine ~id:0 ~socket:0 ~ctx_switch:0 in
  let core1 = Core_res.create engine ~id:1 ~socket:0 ~ctx_switch:0 in
  let lock = Slock.create ~name:"t" in
  let done_at = ref 0L in
  ignore
    (Engine.spawn engine ~name:"holder" (fun () ->
         Slock.hold lock ~core:core0 ~cost:10 ~work:5000));
  ignore
    (Engine.spawn engine ~name:"waiter" (fun () ->
         Slock.hold lock ~core:core1 ~cost:10 ~work:100;
         done_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "waiter delayed past holder (%Ld)" !done_at)
    true (!done_at > 5000L)

let test_unfs_config_shape () =
  let c = Hare_experiments.World.unfs_config (Test_util.small_config ~ncores:2 ()) in
  Alcotest.(check bool) "single server" true (c.Config.placement = Config.Split 1);
  Alcotest.(check bool) "no direct access" false c.Config.direct_access;
  Alcotest.(check bool) "no distribution" false c.Config.dir_distribution;
  Alcotest.(check bool) "loopback added" true
    (c.Config.costs.Hare_config.Costs.send
    > Config.default.Config.costs.Hare_config.Costs.send)

(* One script through a world's [Api.t]: children exiting at 0, 100k and
   200k cycles; a [waitpid] of the last (the first two exits are popped
   on the way and kept), a [waitpid] of the middle one (served from the
   kept exits), [wait] until [ECHILD], then [waitpid] of a reaped and of
   an unknown pid. It returns what each call gave, children named by
   their fork order. *)
let wait_script (type p) (api : p Api.t) (p : p) =
  let child status cycles =
    api.Api.fork p (fun c ->
        api.Api.compute c cycles;
        status)
  in
  let pids = [| child 10 0; child 20 100_000; child 30 200_000 |] in
  let name pid =
    match List.find_opt (fun i -> pids.(i) = pid) [ 0; 1; 2 ] with
    | Some i -> string_of_int i
    | None -> "?"
  in
  let errno f =
    match f () with
    | (_ : int) -> "no error"
    | exception Errno.Error (e, _) -> Errno.to_string e
  in
  let last = api.Api.waitpid p pids.(2) in
  let middle = api.Api.waitpid p pids.(1) in
  let rec drain acc =
    match api.Api.wait p with
    | pid, status -> drain (Printf.sprintf "%s:%d" (name pid) status :: acc)
    | exception Errno.Error (e, _) -> List.rev (Errno.to_string e :: acc)
  in
  let waits = drain [] in
  [ string_of_int last; string_of_int middle ]
  @ waits
  @ [ errno (fun () -> api.Api.waitpid p pids.(1)); errno (fun () -> api.Api.waitpid p 999_999) ]

let test_wait_both_worlds () =
  let expected = [ "30"; "20"; "0:10"; "ECHILD"; "ECHILD"; "ECHILD" ] in
  let check (module W : Hare_experiments.World.WORLD) =
    let w = W.boot config in
    let got = ref [] in
    let init =
      W.spawn_init w ~name:"waiter" (fun p ->
          got := wait_script (W.api w) p;
          0)
    in
    W.run w;
    Alcotest.(check (option int)) (W.name ^ " exit status") (Some 0) (W.exit_status w init);
    Alcotest.(check (list string)) W.name expected !got
  in
  check (module Hare_experiments.World.Hare_w);
  check (module Hare_experiments.World.Linux_w)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "baseline.linux",
      [
        tc "file roundtrip" `Quick test_linux_file_roundtrip;
        tc "namespace ops" `Quick test_linux_namespace;
        tc "rmdir nonempty" `Quick test_linux_rmdir_nonempty;
        tc "fork shares fd" `Quick test_linux_fork_shared_fd;
        tc "fork spreads" `Quick test_linux_fork_spreads_cores;
        tc "pipe" `Quick test_linux_pipe;
        tc "unlinked open file" `Quick test_linux_unlinked_open_file;
        tc "wait and waitpid, both worlds" `Quick test_wait_both_worlds;
      ] );
    ( "baseline.slock",
      [
        tc "mutual exclusion" `Quick test_slock_mutual_exclusion;
        tc "queueing delay" `Quick test_slock_queue_delay_costs_time;
      ] );
    ("baseline.unfs", [ tc "config shape" `Quick test_unfs_config_shape ]);
  ]
