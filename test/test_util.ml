(* Helpers for end-to-end machine tests. *)

module Config = Hare_config.Config
module Machine = Hare.Machine
module Posix = Hare.Posix
module P = Hare_proc.Process

let small_config ?(ncores = 4) ?(placement = Config.default.Config.placement)
    ?(exec_policy = Config.default.Config.exec_policy) () =
  (* Keep boot cheap for unit tests: a few MB of buffer cache suffice. *)
  {
    Config.default with
    Config.ncores;
    placement;
    exec_policy;
    buffer_cache_blocks = 1024;
    cores_per_socket = 2;
  }

(* Run [body] as the init process on a fresh machine; propagate any
   in-fiber exception (e.g. an Alcotest failure) to the test runner and
   assert a zero exit status. Returns the machine for post-mortem
   inspection. *)
let run ?(config = small_config ()) ?(expect_status = 0) body =
  let m = Machine.boot config in
  let init, _console = Machine.spawn_init m ~name:"test-init" (fun p _ -> body m p) in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, exn) -> raise exn);
  (match Machine.exit_status m init with
  | Some st -> Alcotest.(check int) "init exit status" expect_status st
  | None -> Alcotest.fail "init never exited");
  m

module HD = Hare_experiments.Driver.Make (Hare_experiments.World.Hare_w)

(* [HD.exec] for a run that must succeed: re-raise the exception of a
   fiber that ended it early, and assert that every worker exited 0. *)
let exec_ok ?nprocs ?null_explorer ?on_start ?after ~config spec =
  let t = HD.exec ~config ?nprocs ?null_explorer ?on_start ?after spec in
  Option.iter (fun (_, e) -> raise e) t.Hare_experiments.Driver.crash;
  Alcotest.(check int) "workers ok" 0 t.Hare_experiments.Driver.failures;
  t

(* Run one paper workload to completion through the driver's workload
   loop (setup + workers) with {!exec_ok}, and return the machine.
   [after] runs in init once the workers are reaped. *)
let run_workload ?(wname = "creates") ?nprocs ?after config =
  (exec_ok ~config ?nprocs ?after (Hare_workloads.All.find wname))
    .Hare_experiments.Driver.w

let errno : Hare_proto.Errno.t Alcotest.testable =
  Alcotest.testable Hare_proto.Errno.pp ( = )

(* Check that [f ()] raises the given errno. *)
let expect_errno name e f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected " ^ Hare_proto.Errno.to_string e)
  | exception Hare_proto.Errno.Error (got, _) -> Alcotest.check errno name e got

let flags_r = Hare_proto.Types.flags_r

let flags_w = Hare_proto.Types.flags_w

let flags_rw = Hare_proto.Types.flags_rw
