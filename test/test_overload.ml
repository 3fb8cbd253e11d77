(* Tests for the overload-control plane (PR 6): bounded-queue boundary
   behaviour, mailbox credit flow control, Robust.reset hygiene, latency
   percentile math, seeded backoff determinism, the knobs-on-but-idle
   zero-perturbation contract, and end-to-end graceful degradation under
   the open-loop overload workload. *)

open Hare_sim
module Config = Hare_config.Config
module Machine = Hare.Machine
module Robust = Hare_stats.Robust
module Latency = Hare_stats.Latency
module O = Hare_workloads.Overload

let costs = Hare_config.Costs.default

(* ---------- Bqueue boundaries ------------------------------------------- *)

let test_bqueue_empty_pop_blocks () =
  let e = Engine.create () in
  let q = Bqueue.create () in
  let got = ref 0 in
  ignore (Engine.spawn e ~name:"popper" (fun () -> got := Bqueue.pop q));
  ignore
    (Engine.spawn e ~name:"pusher" (fun () ->
         Engine.sleep 50L;
         Bqueue.push q 7));
  Engine.run e;
  Alcotest.(check int) "blocked pop sees late push" 7 !got

let test_bqueue_empty_nonblocking () =
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         let q = Bqueue.create () in
         Alcotest.(check (option int)) "empty" None (Bqueue.pop_nonblocking q);
         Alcotest.(check bool) "is_empty" true (Bqueue.is_empty q)));
  Engine.run e

let test_bqueue_full_push_blocks () =
  let e = Engine.create () in
  let order = ref [] in
  let q = Bqueue.create ~capacity:1 () in
  ignore
    (Engine.spawn e ~name:"pusher" (fun () ->
         Bqueue.push q 1;
         Alcotest.(check bool) "full after first push" true (Bqueue.is_full q);
         Alcotest.(check bool) "nonblocking push refused" false
           (Bqueue.push_nonblocking q 99);
         Bqueue.push q 2;
         (* only reached after the popper freed a slot *)
         order := `Pushed_second :: !order));
  ignore
    (Engine.spawn e ~name:"popper" (fun () ->
         Engine.sleep 100L;
         order := `Popped :: !order;
         ignore (Bqueue.pop q)));
  Engine.run e;
  Alcotest.(check bool) "push waited for the pop" true
    (!order = [ `Pushed_second; `Popped ]);
  Alcotest.(check int) "second value queued" 1 (Bqueue.length q)

let test_bqueue_push_overflow_never_blocks () =
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         let q = Bqueue.create ~capacity:2 () in
         Bqueue.push q 1;
         Bqueue.push q 2;
         (* past capacity without suspending — the delayed-delivery path *)
         Bqueue.push_overflow q 3;
         Alcotest.(check int) "over capacity" 3 (Bqueue.length q);
         Alcotest.(check bool) "reports full" true (Bqueue.is_full q)));
  Engine.run e

let test_bqueue_wait_not_full () =
  let e = Engine.create () in
  let resumed_at = ref 0L in
  let q = Bqueue.create ~capacity:1 () in
  ignore
    (Engine.spawn e ~name:"waiter" (fun () ->
         Bqueue.push q 1;
         Bqueue.wait_not_full q;
         resumed_at := Engine.now e));
  ignore
    (Engine.spawn e ~name:"drainer" (fun () ->
         Engine.sleep 200L;
         ignore (Bqueue.pop q)));
  Engine.run e;
  Alcotest.(check bool) "parked until the drain" true (!resumed_at >= 200L);
  ignore
    (Engine.spawn e ~name:"unbounded" (fun () ->
         let u = Bqueue.create () in
         let t0 = Engine.now e in
         Bqueue.wait_not_full u;
         Alcotest.(check int64) "unbounded returns immediately" t0
           (Engine.now e)));
  Engine.run e

(* ---------- Mailbox credit flow control --------------------------------- *)

let test_mailbox_credit_gate () =
  let e = Engine.create () in
  let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
  let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let mb = Hare_msg.Mailbox.create ~capacity:1 ~owner ~costs () in
  let second_sent_at = ref 0L in
  ignore
    (Engine.spawn e ~name:"sender" (fun () ->
         Hare_msg.Mailbox.send mb ~from:sender "a";
         Hare_msg.Mailbox.send mb ~from:sender "b";
         second_sent_at := Engine.now e));
  ignore
    (Engine.spawn e ~name:"receiver" (fun () ->
         (* far past the cycles the two sends themselves cost, so the
            second send can only complete by waiting for this drain *)
         Engine.sleep 50_000L;
         Alcotest.(check string) "first" "a" (Hare_msg.Mailbox.recv mb);
         Alcotest.(check string) "second" "b" (Hare_msg.Mailbox.recv mb)));
  Engine.run e;
  Alcotest.(check bool) "second send waited for a credit" true
    (!second_sent_at >= 50_000L);
  Alcotest.(check int) "one credit-blocked send" 1
    (Hare_msg.Mailbox.flow_blocked mb);
  Hare_msg.Mailbox.reset_flow mb;
  Alcotest.(check int) "reset_flow zeroes" 0 (Hare_msg.Mailbox.flow_blocked mb)

let test_mailbox_recv_many_short_batch () =
  let e = Engine.create () in
  let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
  let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let mb = Hare_msg.Mailbox.create ~owner ~costs () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         Hare_msg.Mailbox.send mb ~from:sender "x";
         Hare_msg.Mailbox.send mb ~from:sender "y";
         let batch = Hare_msg.Mailbox.recv_many mb ~max:8 in
         Alcotest.(check (list string))
           "returns what is queued, not max" [ "x"; "y" ] batch));
  Engine.run e

(* ---------- counter schemas / Latency math ---------------------------- *)

(* One schema's contract: labels in display order, reset zeroes every
   key, merge sums every key (or keeps the max for [max] keys), and
   is_zero/equal agree with to_list, buckets aside. *)
let check_schema (type k) name
    (module C : Hare_stats.Counters.S with type key = k) ~labels ~(max : k list)
    =
  let chk what = Alcotest.(check bool) (name ^ ": " ^ what) true in
  let keys = C.keys () in
  let a = C.create () and b = C.create () in
  Alcotest.(check (list string))
    (name ^ ": labels") labels
    (List.map fst (C.to_list a));
  chk "fresh is zero" (C.is_zero a);
  List.iteri
    (fun i k ->
      C.add a k (i + 1);
      C.add b k (10 * (i + 1)))
    keys;
  C.merge ~into:a b;
  List.iteri
    (fun i k ->
      let want = if List.mem k max then 10 * (i + 1) else 11 * (i + 1) in
      Alcotest.(check int) (Printf.sprintf "%s: merge key %d" name i) want
        (C.get a k))
    keys;
  C.reset a;
  chk "reset zeroes every key" (List.for_all (fun k -> C.get a k = 0) keys);
  chk "reset is_zero" (C.is_zero a);
  chk "reset equals fresh" (C.equal a (C.create ()));
  let shown =
    List.filter
      (fun k ->
        let t = C.create () and u = C.create () in
        C.incr t k;
        C.incr u k;
        chk "one bump is not zero" (not (C.is_zero t));
        chk "one bump differs from fresh" (not (C.equal t (C.create ())));
        chk "equal records" (C.equal t u);
        let nonzero = List.filter (fun (_, n) -> n <> 0) (C.to_list t) in
        chk "to_list shows at most the bumped key" (List.length nonzero <= 1);
        nonzero <> [])
      keys
  in
  Alcotest.(check int) (name ^ ": every label has a key") (List.length labels)
    (List.length shown)

let test_robust_reset () =
  check_schema "robust"
    (module Robust)
    ~max:[]
    ~labels:
      [ "msgs dropped"; "msgs duplicated"; "msgs delayed"; "msgs blackholed";
        "rpc timeouts"; "rpc retries"; "rpc giveups"; "dedup hits";
        "server crashes"; "server restarts"; "requests aborted";
        "tokens recovered"; "dircache flushes"; "partial broadcasts";
        "blocks rebuilt"; "sends credit-blocked"; "shed expired";
        "shed overload"; "breaker fast-fails"; "retry budget denials";
        "breaker opens"; "breaker half-opens"; "breaker closes" ];
  let module Perf = Hare_stats.Perf in
  check_schema "perf"
    (module Perf)
    ~max:[ Perf.window_hwm ]
    ~labels:
      [ "window high-water"; "deferred rpcs"; "deferred errors";
        "server batches"; "batched requests"; "extent-lease hits";
        "extent-lease misses"; "blocks allocated ahead";
        "dedup entries evicted" ];
  Alcotest.(check int) "perf: histogram buckets" 17
    (Array.length Perf.batch_hist);
  let module Sanity = Hare_stats.Sanity in
  let rules =
    [ "stale-read"; "lost-write"; "write-race"; "missed-writeback";
      "open-inval"; "close-writeback"; "dircache-stale"; "fd-leak";
      "lease-leak" ]
  in
  check_schema "sanity"
    (module Sanity)
    ~max:[]
    ~labels:
      (rules
      @ [ "dirty-discarded"; "hb-joins"; "lines-tracked"; "cache-hits";
          "cache-fills"; "cache-evictions"; "cache-writebacks";
          "cache-invalidated" ]);
  Alcotest.(check (list string)) "sanity: violations are the rules" rules
    (List.map fst (Sanity.violations (Sanity.create ())))

let test_latency_percentiles () =
  let d = Latency.of_durations (List.init 100 (fun i -> Int64.of_int (i + 1))) in
  Alcotest.(check int) "n" 100 d.Latency.n;
  Alcotest.(check int64) "p50" 50L d.Latency.p50;
  Alcotest.(check int64) "p95" 95L d.Latency.p95;
  Alcotest.(check int64) "p99" 99L d.Latency.p99;
  Alcotest.(check int64) "max" 100L d.Latency.lmax;
  let one = Latency.of_durations [ 42L ] in
  Alcotest.(check int64) "single sample p99" 42L one.Latency.p99;
  Alcotest.(check int) "empty" 0 (Latency.of_durations []).Latency.n

let test_latency_classes () =
  Alcotest.(check (option string)) "read" (Some "data")
    (Latency.class_of_op "read");
  Alcotest.(check (option string)) "open" (Some "meta")
    (Latency.class_of_op "open");
  Alcotest.(check (option string)) "unlink" (Some "background")
    (Latency.class_of_op "unlink");
  Alcotest.(check (option string)) "non-syscall" None
    (Latency.class_of_op "server_dispatch");
  Alcotest.(check bool) "wire class data" true
    ((Hare_proto.Wire.info (Hare_proto.Wire.Pipe_read { token = 0; len = 1 }))
       .shed = Hare_proto.Wire.Data)

(* ---------- end-to-end helpers ------------------------------------------ *)

(* Run the overload workload through the driver loop, the way hare_cli
   and bench do; return the machine and the run's own counters. *)
let run_overload_machine ?(nprocs = 24) ?(period = 30_000) config =
  let spec, counters = O.make ~period () in
  let t = Test_util.exec_ok ~config ~nprocs spec in
  (t.Hare_experiments.Driver.w, counters)

(* The control-plane preset at 8 cores, traced for the latency report. *)
let overload_config () =
  let p = O.preset (Test_util.small_config ~ncores:8 ()) in
  { p.O.config with Config.trace_enabled = true }

(* ---------- seeded determinism ------------------------------------------ *)

let test_backoff_deterministic_per_seed () =
  (* Retry backoff jitter is drawn from the seeded Rng: two runs under
     the same fault plan and seed must produce the identical clock and
     the identical retry/timeout history. *)
  let config =
    {
      (overload_config ()) with
      Config.fault_plan = "drop:fs:0.08";
      seed = 42L;
    }
  in
  let run () =
    let m, _ = run_overload_machine config in
    (Machine.now m, Robust.to_list (Machine.robustness m))
  in
  let clock1, robust1 = run () in
  let clock2, robust2 = run () in
  Alcotest.(check int64) "identical clock" clock1 clock2;
  List.iter2
    (fun (k, v1) (_, v2) -> Alcotest.(check int) k v1 v2)
    robust1 robust2;
  Alcotest.(check bool) "the plan actually bit (retries happened)" true
    (List.assoc "rpc retries" robust1 > 0)

let test_knobs_on_but_idle_is_bit_identical () =
  (* With every knob open but nothing pushed past a limit — light load,
     generous watermark/capacity, no faults — the overload machinery
     must not perturb the simulation: the clock matches the knobs-off
     run cycle for cycle, and every new counter stays zero. Both with
     synchronous closes and with closes riding the deferral window,
     where breakers and budgets see polled replies too. *)
  List.iter
    (fun window ->
      (* the deadline/retry machinery predates this PR and arms timers
         of its own; hold it fixed and toggle only the new knobs *)
      let base =
        {
          (Test_util.small_config ~ncores:4 ()) with
          Config.rpc_deadline = 1_000_000;
          rpc_retries = 4;
          rpc_window = window;
        }
      in
      let idle_knobs =
        {
          base with
          Config.rpc_deadline_max = 8_000_000;
          deadline_propagation = true;
          mailbox_capacity = 4096;
          retry_budget = 64;
          breaker_threshold = 32;
          breaker_cooldown = 500_000;
          shed_watermark = 4096;
        }
      in
      let run config = fst (run_overload_machine ~nprocs:3 config) in
      let off = run base in
      let on = run idle_knobs in
      let label what = Printf.sprintf "%s (rpc_window %d)" what window in
      Alcotest.(check int64)
        (label "identical clock with idle knobs")
        (Machine.now off) (Machine.now on);
      let r = Machine.robustness on in
      Alcotest.(check int) (label "no credit blocks") 0
        (Robust.get r Robust.flow_blocks);
      Alcotest.(check int) (label "no expiry sheds") 0
        (Robust.get r Robust.shed_expired);
      Alcotest.(check int) (label "no load sheds") 0
        (Robust.get r Robust.shed_load);
      Alcotest.(check int) (label "no fast fails") 0
        (Robust.get r Robust.fast_fails);
      Alcotest.(check int) (label "no budget denials") 0
        (Robust.get r Robust.budget_denied);
      Alcotest.(check int) (label "no breaker opens") 0
        (Robust.get r Robust.breaker_opens))
    [ 1; 8 ]

(* ---------- breakers on the deferral window ----------------------------- *)

(* The retry protocol with a breaker that opens on one give-up, and an
   eight-deep window: a regular file's close is a deferred send. *)
let window_breaker_config =
  {
    (Test_util.small_config ~ncores:4 ()) with
    Config.rpc_deadline = 1_000_000;
    rpc_retries = 4;
    breaker_threshold = 1;
    breaker_cooldown = 200_000;
    rpc_window = 8;
  }

let closes_served m sid =
  Hare_stats.Opcount.get
    (Hare_server.Server.ops (Machine.servers m).(sid))
    (Hare_proto.Wire.info (Hare_proto.Wire.Close_fd { token = 0; size = None }))
      .name

(* Open a fresh file; return the client of [p]'s core, the descriptor
   and the physical server homing the file (static placement: the
   inode's server). *)
let open_homed m p =
  let c = (Machine.clients m).(p.Test_util.P.core_id) in
  let fd = Test_util.Posix.creat p "/f" in
  let sid = (Test_util.Posix.fstat p fd).Hare_proto.Types.a_ino.server in
  (c, fd, sid)

let test_deferred_close_passes_breaker () =
  (* A deferred close to a server whose breaker is open fast-fails
     exactly like a synchronous one: EIO, and nothing reaches the
     server. *)
  ignore
    (Test_util.run ~config:window_breaker_config (fun m p ->
         let c, fd, sid = open_homed m p in
         let served = closes_served m sid in
         Hare_client.Client.trip_breaker c sid;
         (match Test_util.Posix.close p fd with
         | () -> Alcotest.fail "close to an open breaker went out"
         | exception Hare_proto.Errno.Error (Hare_proto.Errno.EIO, _) -> ());
         Alcotest.(check int) "one fast-fail" 1
           (Robust.get (Hare_client.Client.robust c) Robust.fast_fails);
         Alcotest.(check int) "the server saw no close" served
           (closes_served m sid);
         0))

let test_polled_probe_closes_breaker () =
  (* After the cooldown a deferred close is the half-open probe. Its
     reply lands while the client is busy elsewhere and is only polled
     when the window drains — and that poll must still close the
     breaker, or it would stay half-open (fast-failing everything) for
     ever. *)
  ignore
    (Test_util.run ~config:window_breaker_config (fun m p ->
         let c, fd, sid = open_homed m p in
         Hare_client.Client.trip_breaker c sid;
         let after cycles = Int64.add (Machine.now m) (Int64.of_int cycles) in
         Test_util.Posix.sleep_until p
           (after window_breaker_config.Config.breaker_cooldown);
         Test_util.Posix.close p fd;
         Test_util.Posix.sleep_until p (after 100_000);
         Hare_client.Client.drain_window c;
         let r = Hare_client.Client.robust c in
         Alcotest.(check int) "the close was the probe" 1
           (Robust.get r Robust.breaker_half_opens);
         Alcotest.(check int) "its polled reply closed the breaker" 1
           (Robust.get r Robust.breaker_closes);
         Alcotest.(check int) "no breaker left open" 0
           (Hare_client.Client.open_breakers c);
         0))

(* ---------- graceful degradation ---------------------------------------- *)

let test_graceful_degradation_at_saturation () =
  (* ~2x overdrive against a single server core: the machine must keep
     doing useful work (goodput > 0), account for every request, shed
     the excess with EBUSY rather than collapse, and keep tail latency
     of admitted requests bounded by the deadline machinery. Also under
     duplication: only a request's first copy may be shed, so a
     duplicate replays its original's outcome and the server counts
     each shed once. *)
  List.iter
    (fun plan ->
      let config =
        Hare_experiments.Driver.with_fault_plan plan (overload_config ())
      in
      let spec, c = O.make ~period:30_000 () in
      let t = Test_util.exec_ok ~config ~nprocs:24 spec in
      (* The whole run's record, as hare_cli run measures it. *)
      let res = Test_util.HD.measure ~config ~scale:1 ~since:0.0 spec t in
      let r = res.Hare_experiments.Driver.robust in
      let check_int what = Alcotest.(check int) (plan ^ ": " ^ what) in
      let check what = Alcotest.(check bool) (plan ^ ": " ^ what) true in
      check "sent something" (c.O.sent > 0);
      check_int "every request accounted for" c.O.sent
        (c.O.ok + c.O.shed + c.O.fast_fail + c.O.skipped);
      check "goodput survives overload" (c.O.ok > 0);
      check "excess load was shed" (c.O.shed > 0);
      check_int "workload sheds = server load sheds" c.O.shed
        (Robust.get r Robust.shed_load);
      check "no unexplained giveups"
        (Robust.get r Robust.giveups <= Robust.get r Robust.timeouts);
      let dists = res.Hare_experiments.Driver.latencies in
      check "latency classes present" (dists <> []);
      List.iter
        (fun (cls, d) ->
          check (cls ^ " has samples") (d.Latency.n > 0);
          check (cls ^ " p99 ordered")
            (d.Latency.p50 <= d.Latency.p99 && d.Latency.p99 <= d.Latency.lmax))
        dists)
    [ ""; "dup:fs:0.1" ]

let test_crash_trips_breakers () =
  (* A mid-run server crash under load: breakers must open (fast-fails
     follow), then close again after the restart — the probe path. *)
  let config =
    {
      (overload_config ()) with
      Config.fault_plan = "crash:0@2000000+1500000";
      seed = 1L;
    }
  in
  let m, c = run_overload_machine config in
  let r = Machine.robustness m in
  Alcotest.(check int) "one crash" 1 (Robust.get r Robust.crashes);
  Alcotest.(check int) "one restart" 1 (Robust.get r Robust.restarts);
  Alcotest.(check bool) "breakers opened" true
    (Robust.get r Robust.breaker_opens > 0);
  Alcotest.(check bool) "probes admitted" true
    (Robust.get r Robust.breaker_half_opens > 0);
  Alcotest.(check bool) "breakers closed after recovery" true
    (Robust.get r Robust.breaker_closes > 0);
  Alcotest.(check bool) "open breakers fast-failed callers" true
    (Robust.get r Robust.fast_fails > 0);
  Alcotest.(check bool) "the run still made progress" true (c.O.ok > 0)

(* ---------- each overload knob moves its counter ------------------------ *)

(* The overload preset at 8 cores, seed 1, under [plan]: [count v] runs
   it with [knob] set to [v] and returns the run's [counter] total. *)
let knob_counter ?(plan = "") knob counter v =
  let config =
    knob { (overload_config ()) with Config.fault_plan = plan; seed = 1L } v
  in
  Robust.get (Machine.robustness (fst (run_overload_machine config))) counter

let crash_plan = "crash:0@2000000+1500000"

let test_knob_mailbox_capacity () =
  (* The preset's 24 credits never run out; 4 do. *)
  let count =
    knob_counter
      (fun c v -> { c with Config.mailbox_capacity = v })
      Robust.flow_blocks
  in
  let a = count 4 and b = count 0 in
  Alcotest.(check bool) "capacity 4 blocks senders" true (a > 0);
  Alcotest.(check int) "unbounded never blocks" 0 b

let test_knob_deadline_propagation () =
  let count =
    knob_counter
      (fun c v -> { c with Config.deadline_propagation = v })
      Robust.shed_expired
  in
  let a = count true and b = count false in
  Alcotest.(check bool) "propagated deadlines expire copies" true (a > 0);
  Alcotest.(check int) "no deadline on the envelope, no expiry" 0 b

let test_knob_retry_budget () =
  let count =
    knob_counter ~plan:crash_plan
      (fun c v -> { c with Config.retry_budget = v })
      Robust.budget_denied
  in
  let a = count 12 and b = count 0 in
  Alcotest.(check bool) "the budget denies retries" true (a > 0);
  Alcotest.(check int) "no budget, no denials" 0 b

let test_knob_rpc_deadline_max () =
  (* Through the crash, a per-attempt deadline capped at 4x the base
     times out more often than the legacy 64x cap. *)
  let count =
    knob_counter ~plan:crash_plan
      (fun c v -> { c with Config.rpc_deadline_max = v })
      Robust.timeouts
  in
  let a = count 240_000 and b = count 0 in
  Alcotest.(check bool) "the tighter cap times out more" true (a > b)

let suites =
  [
    ( "overload",
      [
        Alcotest.test_case "bqueue empty pop blocks" `Quick
          test_bqueue_empty_pop_blocks;
        Alcotest.test_case "bqueue empty nonblocking" `Quick
          test_bqueue_empty_nonblocking;
        Alcotest.test_case "bqueue full push blocks" `Quick
          test_bqueue_full_push_blocks;
        Alcotest.test_case "bqueue push_overflow" `Quick
          test_bqueue_push_overflow_never_blocks;
        Alcotest.test_case "bqueue wait_not_full" `Quick
          test_bqueue_wait_not_full;
        Alcotest.test_case "mailbox credit gate" `Quick
          test_mailbox_credit_gate;
        Alcotest.test_case "recv_many short batch" `Quick
          test_mailbox_recv_many_short_batch;
        Alcotest.test_case "Robust.reset" `Quick test_robust_reset;
        Alcotest.test_case "latency percentiles" `Quick
          test_latency_percentiles;
        Alcotest.test_case "latency classes" `Quick test_latency_classes;
        Alcotest.test_case "backoff deterministic per seed" `Quick
          test_backoff_deterministic_per_seed;
        Alcotest.test_case "idle knobs are zero-perturbation" `Quick
          test_knobs_on_but_idle_is_bit_identical;
        Alcotest.test_case "deferred close passes the breaker" `Quick
          test_deferred_close_passes_breaker;
        Alcotest.test_case "polled probe closes the breaker" `Quick
          test_polled_probe_closes_breaker;
        Alcotest.test_case "graceful degradation at saturation" `Quick
          test_graceful_degradation_at_saturation;
        Alcotest.test_case "crash trips breakers" `Quick
          test_crash_trips_breakers;
        Alcotest.test_case "knob: mailbox capacity" `Quick
          test_knob_mailbox_capacity;
        Alcotest.test_case "knob: propagation" `Quick
          test_knob_deadline_propagation;
        Alcotest.test_case "knob: retry budget" `Quick test_knob_retry_budget;
        Alcotest.test_case "knob: rpc deadline max" `Quick
          test_knob_rpc_deadline_max;
      ] );
  ]
