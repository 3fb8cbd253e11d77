(* Span tracing (observability PR): the tracer must observe without
   perturbing — same seed gives bit-identical simulations with tracing
   on or off and byte-identical exports across runs — and its cycle
   attribution must be exact: every span's buckets sum to its elapsed
   cycles, with nothing left over. *)

open Test_util
module Trace = Hare_trace.Trace
module Perf = Hare_stats.Perf
module Opcount = Hare_stats.Opcount
module Engine = Hare_sim.Engine

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let traced_config ?(cap = 65536) ?(enabled = true) ?(window = 1) ?plan () =
  let c =
    {
      (small_config ~ncores:4 ()) with
      Config.trace_enabled = enabled;
      trace_cap = cap;
      rpc_window = window;
      seed = 7L;
    }
  in
  match plan with
  | None -> c
  | Some p -> Hare_experiments.Driver.with_fault_plan p c

(* Everything externally observable about a run, for tracing-is-inert
   comparisons. *)
let fingerprint m =
  ( Machine.now m,
    Opcount.to_list (Machine.total_syscalls m),
    Opcount.to_list (Machine.total_server_ops m),
    Machine.total_rpcs m,
    Machine.total_invals m )

let fp :
    (int64 * (string * int) list * (string * int) list * int * int)
    Alcotest.testable =
  Alcotest.testable
    (fun ppf (now, _, _, rpcs, invals) ->
      Format.fprintf ppf "now=%Ld rpcs=%d invals=%d" now rpcs invals)
    ( = )

(* ---------- zero perturbation ------------------------------------------- *)

let test_onoff_identical () =
  let off = run_workload (traced_config ~enabled:false ()) in
  let on = run_workload (traced_config ~enabled:true ()) in
  Alcotest.check fp "tracing changes nothing observable" (fingerprint off)
    (fingerprint on);
  Alcotest.(check bool) "sink present when on" true (Machine.trace on <> None);
  Alcotest.(check bool) "no sink when off" true (Machine.trace off = None)

let test_onoff_identical_under_faults () =
  (* Retry backoff draws from an RNG right where trace hooks were added;
     the draw order must be unchanged. The crash/restart path also emits
     instants. *)
  let plan = "drop:fs:0.05;crash:1@200000+150000" in
  let off = run_workload ~wname:"writes" (traced_config ~enabled:false ~plan ()) in
  let on = run_workload ~wname:"writes" (traced_config ~enabled:true ~plan ()) in
  Alcotest.check fp "tracing inert under faults" (fingerprint off)
    (fingerprint on);
  let r_off = Machine.robustness off and r_on = Machine.robustness on in
  Alcotest.(check (list (pair string int)))
    "identical robustness counters"
    (Hare_stats.Robust.to_list r_off)
    (Hare_stats.Robust.to_list r_on)

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
  p.Perf.deferred <- 7;
  p.Perf.lease_hits <- 2;
  Alcotest.(check bool) "counters moved" false (Perf.is_zero p);
  Perf.reset p;
  Alcotest.(check bool) "reset zeroes everything" true (Perf.is_zero p)

let test_perf_reset_machine () =
  let m = run_workload (traced_config ~window:8 ()) in
  Alcotest.(check bool) "pipelined run populated perf" false
    (Perf.is_zero (Machine.perf m));
  Machine.reset_perf m;
  Alcotest.(check bool) "machine-wide reset" true (Perf.is_zero (Machine.perf m))

(* ---------- deadlock report includes spans (satellite) ------------------ *)

let test_deadlock_reports_spans () =
  let e = Engine.create () in
  let tr = Trace.create ~cap:64 () in
  Engine.set_sink e tr;
  (* A finished span on track 0 — what the wedged machine last did. *)
  ignore
    (Trace.ctx_open tr ~fid:1 ~op:"open" ~track:0 ~parent:0 ~now:0L ~args:[]);
  Trace.ctx_close_syscall tr ~fid:1 ~now:10L;
  ignore
    (Engine.spawn e ~name:"wedged" (fun () -> Engine.suspend (fun _ -> ())));
  match Engine.run e with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "mentions recent spans" true
        (contains ~needle:"recent spans" msg);
      Alcotest.(check bool) "names the last op" true
        (contains ~needle:"open" msg)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "trace.zero-perturbation",
      [
        tc "tracing on/off bit-identical" `Quick test_onoff_identical;
        tc "inert under fault plans" `Quick test_onoff_identical_under_faults;
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
      ] );
  ]
