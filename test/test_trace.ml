(* Span tracing (observability PR): exports must be byte-identical
   across runs of one seed, and the cycle attribution must be exact:
   every span's buckets sum to its elapsed cycles, with nothing left
   over. That tracing leaves the simulation untouched is test_obs's
   zero-perturbation matrix. *)

open Test_util
module Trace = Hare_trace.Trace
module Perf = Hare_stats.Perf
module Engine = Hare_sim.Engine

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let traced_config ?(cap = 65536) ?(window = 1) () =
  {
    (small_config ~ncores:4 ()) with
    Config.trace_enabled = true;
    trace_cap = cap;
    rpc_window = window;
    seed = 7L;
  }

(* ---------- zero perturbation ------------------------------------------- *)

let test_export_byte_identical () =
  let json1 =
    match Machine.trace (run_workload (traced_config ())) with
    | Some tr -> Trace.to_chrome_json tr
    | None -> Alcotest.fail "no sink"
  in
  let json2 =
    match Machine.trace (run_workload (traced_config ())) with
    | Some tr -> Trace.to_chrome_json tr
    | None -> Alcotest.fail "no sink"
  in
  Alcotest.(check int) "same length" (String.length json1) (String.length json2);
  Alcotest.(check bool) "byte-identical export" true (String.equal json1 json2);
  Alcotest.(check bool) "chrome framing (head)" true
    (String.length json1 > 16 && String.sub json1 0 16 = "{\"traceEvents\":[");
  Alcotest.(check bool) "chrome framing (tail)" true
    (String.length json1 > 4
    && String.sub json1 (String.length json1 - 4) 4 = "\n]}\n")

(* ---------- bounded ring ------------------------------------------------ *)

let test_ring_overflow () =
  let cap = 256 in
  let m = run_workload (traced_config ~cap ()) in
  match Machine.trace m with
  | None -> Alcotest.fail "no sink"
  | Some tr ->
      Alcotest.(check bool) "dropped counter moved" true (Trace.dropped tr > 0);
      let evs = Trace.events tr in
      Alcotest.(check bool) "ring stays bounded" true (List.length evs <= cap);
      (* The survivors are still a coherent, exportable trace... *)
      let json = Trace.to_chrome_json tr in
      Alcotest.(check bool) "still well-formed" true
        (String.sub json 0 16 = "{\"traceEvents\":[");
      (* ...and the profile, which does not live in the ring, still
         attributes exactly. *)
      List.iter
        (fun (r : Trace.row) ->
          Alcotest.(check int64)
            (r.Trace.r_op ^ ": buckets sum to total despite overflow")
            r.Trace.r_total
            (Array.fold_left Int64.add 0L r.Trace.r_buckets))
        (Trace.profile tr)

(* ---------- exact attribution ------------------------------------------- *)

let test_profile_exact () =
  let m = run_workload ~wname:"writes" (traced_config ()) in
  match Machine.trace m with
  | None -> Alcotest.fail "no sink"
  | Some tr ->
      let rows = Trace.profile tr in
      Alcotest.(check bool) "profile not empty" true (rows <> []);
      let grand = ref 0L in
      List.iter
        (fun (r : Trace.row) ->
          grand := Int64.add !grand r.Trace.r_total;
          Alcotest.(check int64)
            (r.Trace.r_op ^ ": buckets sum exactly to total")
            r.Trace.r_total
            (Array.fold_left Int64.add 0L r.Trace.r_buckets))
        rows;
      Alcotest.(check bool) "some cycles attributed" true (!grand > 0L);
      (* data-heavy workload must show cache and dram traffic *)
      let bucket_total i =
        List.fold_left
          (fun acc (r : Trace.row) -> Int64.add acc r.Trace.r_buckets.(i))
          0L rows
      in
      Alcotest.(check bool) "cache bucket nonzero" true
        (bucket_total (Trace.bucket_index Trace.Cache) > 0L);
      Alcotest.(check bool) "dram bucket nonzero" true
        (bucket_total (Trace.bucket_index Trace.Dram) > 0L)

(* ---------- Perf.reset (satellite) -------------------------------------- *)

let test_perf_reset_unit () =
  let p = Perf.create () in
  Perf.note_window p 5;
  Perf.note_batch p 3;
  Perf.add p Perf.deferred 7;
  Perf.add p Perf.lease_hits 2;
  Alcotest.(check bool) "counters moved" false (Perf.is_zero p);
  Perf.reset p;
  Alcotest.(check bool) "reset zeroes everything" true (Perf.is_zero p)

let test_perf_reset_machine () =
  let m = run_workload (traced_config ~window:8 ()) in
  Alcotest.(check bool) "pipelined run populated perf" false
    (Perf.is_zero (Machine.perf m));
  Machine.reset_perf m;
  Alcotest.(check bool) "machine-wide reset" true (Perf.is_zero (Machine.perf m))

(* ---------- deadlock report (satellite) --------------------------------- *)

(* A traced machine wedges: init leaves a message nobody will receive in
   a named mailbox and parks forever. The report must name the blocked
   process fiber, the non-zero probe depth and the trace's recent spans — the
   engine gets those from its bus subscribers. *)
let test_deadlock_reports_spans () =
  let m = Machine.boot (traced_config ()) in
  ignore
    (Machine.spawn_init m ~name:"wedged" (fun p _ ->
         let fd = Posix.creat p "/last" in
         Posix.close p fd;
         let core = P.core p in
         let stuck =
           Hare_msg.Mailbox.create ~name:"stuck" ~owner:core
             ~costs:(Machine.config m).Config.costs ()
         in
         Hare_msg.Mailbox.send stuck ~from:core ();
         Engine.suspend ignore;
         0));
  match Machine.run m with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      List.iter
        (fun needle ->
          if not (contains ~needle msg) then
            Alcotest.failf "report lacks %S: %s" needle msg)
        [ "1 fiber(s) blocked"; "proc-"; "stuck=1"; "recent spans"; "close" ]

(* A process body that dies of an uncaught errno exits with status 1 and
   leaves a [proc-errno] instant, naming the pid, the errno and the
   operand, on its core's track; a plain non-zero exit leaves none. *)
let test_errno_exit_instant () =
  let child = ref 0 in
  let m =
    run ~config:(traced_config ()) (fun _m p ->
        let pid =
          Posix.fork p (fun _ -> Hare_proto.Errno.raise_errno EIO "probe.o")
        in
        child := pid;
        Alcotest.(check int) "errno exit status" 1 (Posix.waitpid p pid);
        ignore (Posix.waitpid p (Posix.fork p (fun _ -> 3)));
        0)
  in
  match Machine.trace m with
  | None -> Alcotest.fail "no sink"
  | Some tr -> (
      let instants =
        List.filter_map
          (function
            | Trace.Instant { name = "proc-errno"; track; args; _ } ->
                Some (track, args)
            | _ -> None)
          (Trace.events tr)
      in
      match instants with
      | [ (track, args) ] ->
          Alcotest.(check int) "core track"
            (Hare_proto.Types.core_of_pid !child) track;
          Alcotest.(check (list (pair string string)))
            "args"
            [ ("pid", string_of_int !child); ("errno", "EIO"); ("what", "probe.o") ]
            args;
          if not (contains ~needle:"proc-errno" (Trace.to_chrome_json tr)) then
            Alcotest.fail "export lacks the instant"
      | l -> Alcotest.failf "%d proc-errno instants, want 1" (List.length l))

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "trace.zero-perturbation",
      [
        tc "export byte-identical across runs" `Quick
          test_export_byte_identical;
      ] );
    ( "trace.ring",
      [ tc "overflow drops oldest, counts, stays coherent" `Quick
          test_ring_overflow ] );
    ( "trace.attribution",
      [ tc "bucket sums equal span totals" `Quick test_profile_exact ] );
    ( "trace.satellites",
      [
        tc "Perf.reset zeroes a record" `Quick test_perf_reset_unit;
        tc "Machine.reset_perf zeroes the fleet" `Quick
          test_perf_reset_machine;
        tc "deadlock report dumps recent spans" `Quick
          test_deadlock_reports_spans;
        tc "errno exit leaves an instant" `Quick test_errno_exit_instant;
      ] );
  ]
