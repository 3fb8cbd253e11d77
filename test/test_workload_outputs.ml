(* Output-correctness tests for the benchmarks: beyond "it ran", check
   that the file-system state each workload leaves behind is the right
   one — extract reproduced the archive, the build produced every object,
   mailbench's spool balances, punzip expanded by the right factor. *)

module Spec = Hare_workloads.Spec
module Api = Hare_api.Api
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module Types = Hare_proto.Types

let config = Driver.default_config ~ncores:4

(* a world-polymorphic verification body *)
type verifier = { f : 'w. 'w Api.t -> 'w -> int }

(* Run spec's setup + workers through the driver loop, then run [verify]
   in the same init process and check its exit status. *)
let run_and_verify (spec : Spec.t) ~nprocs (verify : verifier) =
  let status = ref (-1) in
  let after m p ~failures =
    if failures = 0 then status := verify.f (World.Hare_w.api m) p
  in
  (match Test_util.HD.exec ~config ~nprocs ~after spec with
  | _, failures -> Alcotest.(check int) "workers ok" 0 failures
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e);
  Alcotest.(check int) "verification" 0 !status

let ls api p dir = api.Api.readdir p dir

let test_build_produces_everything () =
  run_and_verify Hare_workloads.Build_linux.spec ~nprocs:4
    { f =
        (fun api p ->
          if not (api.Api.exists p "/src/vmlinux") then 1
          else begin
            (* every source has its object, and no .tmp files survive *)
            let bad = ref 0 in
            for d = 0 to 7 do
              let dir = Printf.sprintf "/src/d%d" d in
              let entries = ls api p dir in
              let count suffix =
                List.length
                  (List.filter
                     (fun (n, _) -> Filename.check_suffix n suffix)
                     entries)
              in
              if count ".c" <> count ".o" then incr bad;
              if count ".tmp" <> 0 then incr bad
            done;
            !bad
          end);
    }

let test_extract_reproduces_archive () =
  run_and_verify Hare_workloads.Extract.spec ~nprocs:3
    { f =
        (fun api p ->
          (* every extracted file has the expected deterministic bytes *)
          let bad = ref 0 and seen = ref 0 in
          List.iter
            (fun (w, wt) ->
              if wt = Types.Dir then
                List.iter
                  (fun (d, dt) ->
                    if dt = Types.Dir then
                      List.iter
                        (fun (f, _) ->
                          incr seen;
                          let path =
                            Printf.sprintf "/extract/%s/%s/%s" w d f
                          in
                          let idx = int_of_string (String.sub f 1 4) in
                          let fd = api.Api.openf p path Types.flags_r in
                          let s = Api.read_to_eof api p fd in
                          api.Api.close p fd;
                          if s <> Hare_workloads.Tree.file_data 2048 idx then
                            incr bad)
                        (ls api p (Printf.sprintf "/extract/%s/%s" w d)))
                  (ls api p ("/extract/" ^ w)))
            (ls api p "/extract");
          if !seen = 48 && !bad = 0 then 0 else 1);
    }

let test_mailbench_spool_balance () =
  run_and_verify Hare_workloads.Mailbench.spec ~nprocs:3
    { f =
        (fun api p ->
          (* tmp is empty (every message was delivered); new holds the
             deliveries minus the pickups (every 8th is picked up) *)
          let tmp = ls api p "/mail/tmp" in
          let fresh = ls api p "/mail/new" in
          let iters = 100 in
          let expected = 3 * (iters - (iters / 8)) in
          if tmp = [] && List.length fresh = expected then 0 else 1);
    }

let test_punzip_expansion () =
  run_and_verify Hare_workloads.Punzip.spec ~nprocs:2
    { f =
        (fun api p ->
          let ok = ref 0 in
          for i = 0 to 1 do
            let a = api.Api.stat p (Printf.sprintf "/man/pack%d.gz" i) in
            let b = api.Api.stat p (Printf.sprintf "/man/out%d" i) in
            if b.Types.a_size = 3 * a.Types.a_size then incr ok
          done;
          if !ok = 2 then 0 else 1);
    }

let test_rm_leaves_nothing () =
  run_and_verify Hare_workloads.Rm.dense ~nprocs:4
    { f = (fun api p -> if api.Api.exists p "/rmtree" then 1 else 0) }

let test_writes_content () =
  run_and_verify Hare_workloads.Writes.spec ~nprocs:2
    { f =
        (fun api p ->
          (* the file wraps every 64 chunks: final size is 64 * 4096, and
             any chunk equals the worker's deterministic pattern *)
          let a = api.Api.stat p "/writes/w0" in
          if a.Types.a_size <> 64 * 4096 then 1
          else begin
            let fd = api.Api.openf p "/writes/w0" Types.flags_r in
            ignore (api.Api.lseek p fd ~pos:(17 * 4096) Types.Seek_set);
            let chunk = api.Api.read p fd ~len:4096 in
            api.Api.close p fd;
            if chunk = Hare_workloads.Tree.file_data 4096 0 then 0 else 2
          end);
    }

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "workload-outputs",
      [
        tc "build: all objects + vmlinux" `Quick test_build_produces_everything;
        tc "extract: bytes reproduced" `Quick test_extract_reproduces_archive;
        tc "mailbench: spool balances" `Quick test_mailbench_spool_balance;
        tc "punzip: 3x expansion" `Quick test_punzip_expansion;
        tc "rm: tree fully gone" `Quick test_rm_leaves_nothing;
        tc "writes: wrapped content" `Quick test_writes_content;
      ] );
  ]
