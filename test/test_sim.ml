(* Unit tests for the discrete-event engine and its primitives. *)

open Hare_sim

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:5 ~seq:1 "b";
  Heap.push h ~time:3 ~seq:2 "a";
  Heap.push h ~time:5 ~seq:0 "c";
  Heap.push h ~time:9 ~seq:3 "d";
  let order =
    List.init 4 (fun _ ->
        let _, _, v = Heap.pop_min h in
        v)
  in
  Alcotest.(check (list string)) "time then seq" [ "a"; "c"; "b"; "d" ] order

let test_heap_large () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:7L in
  let n = 2000 in
  for i = 0 to n - 1 do
    Heap.push h ~time:(Rng.int rng 1000) ~seq:i i
  done;
  Alcotest.(check int) "length" n (Heap.length h);
  let last = ref (-1) in
  for _ = 1 to n do
    let t, _, _ = Heap.pop_min h in
    Alcotest.(check bool) "monotone" true (t >= !last);
    last := t
  done;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

(* Property test at engine scale: 100k events with clustered timestamps
   (many ties) must drain in exact (time, seq) order, interleaving pushes,
   pops and removals of random live entries the way [run_for] and the
   schedule explorer do. The model is the ordered set of live
   (time, seq) pairs: every pop must return its minimum, and
   [min_entries] must list exactly its entries at the minimum time. The
   value and tag of every entry are functions of its seq, so a value
   slot reused wrongly after a removal shows up as a mismatch. *)
module Live = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let test_heap_property_100k () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:11L in
  let n = 100_000 in
  let tag_of s = s mod 13 in
  let popped = ref [] in
  let seq = ref 0 in
  let pushed = ref 0 in
  let live = ref Live.empty in
  (* live seqs, densely packed so a random victim is one index away *)
  let dense = Array.make n 0 and pos = Array.make n 0 and nlive = ref 0 in
  let time_of = Array.make n 0 in
  let forget s =
    let i = pos.(s) and last = dense.(!nlive - 1) in
    dense.(i) <- last;
    pos.(last) <- i;
    decr nlive;
    live := Live.remove (time_of.(s), s) !live
  in
  let check_popped t s v =
    let expect = Live.min_elt !live in
    if (t, s) <> expect then
      Alcotest.failf "popped (%d, %d), model minimum (%d, %d)" t s (fst expect)
        (snd expect);
    Alcotest.(check int) "value is its seq" s v;
    forget s;
    popped := (t, s) :: !popped
  in
  let check_min_entries () =
    let expect =
      match Live.min_elt_opt !live with
      | None -> []
      | Some (tmin, _) ->
          Live.to_seq !live
          |> Seq.take_while (fun (t, _) -> t = tmin)
          |> Seq.map (fun (_, s) -> (s, tag_of s))
          |> List.of_seq
    in
    Alcotest.(check (list (pair int int)))
      "min_entries matches the model" expect
      (Array.to_list (Heap.min_entries h))
  in
  let rounds = ref 0 in
  while !pushed < n do
    (* burst of pushes ... *)
    let burst = 1 + Rng.int rng 8 in
    for _ = 1 to burst do
      if !pushed < n then begin
        let t = Rng.int rng 5000 and s = !seq in
        Heap.push h ~tag:(tag_of s) ~time:t ~seq:s s;
        time_of.(s) <- t;
        dense.(!nlive) <- s;
        pos.(s) <- !nlive;
        incr nlive;
        live := Live.add (t, s) !live;
        incr seq;
        incr pushed
      end
    done;
    (* ... then drain a few, like the engine's pop-schedule-pop loop,
       alternating the tuple pop with the allocation-free one ... *)
    let drain = Rng.int rng 4 in
    for i = 1 to drain do
      if not (Heap.is_empty h) then begin
        Alcotest.(check int) "min_time matches peek" (Heap.min_time h)
          (let t, _, _ = Heap.peek_min h in
           t);
        if i land 1 = 0 then begin
          let t, s, v = Heap.pop_min h in
          check_popped t s v
        end
        else begin
          let t = Heap.min_time h and s = Heap.min_seq h in
          Alcotest.(check int) "min_tag" (tag_of s) (Heap.min_tag h);
          check_popped t s (Heap.pop h)
        end
      end
    done;
    (* ... and remove a random live entry, as the explorer does *)
    if !nlive > 0 && Rng.int rng 3 = 0 then begin
      let s = dense.(Rng.int rng !nlive) in
      let t, tag, v = Heap.remove_seq h s in
      Alcotest.(check (triple int int int))
        "removed entry" (time_of.(s), tag_of s, s) (t, tag, v);
      forget s
    end;
    incr rounds;
    if !rounds mod 64 = 0 then check_min_entries ()
  done;
  Alcotest.(check int) "length matches the model" !nlive (Heap.length h);
  check_min_entries ();
  while not (Heap.is_empty h) do
    let t, s, v = Heap.pop_min h in
    check_popped t s v
  done;
  Alcotest.(check bool) "model drained" true (Live.is_empty !live);
  Alcotest.check_raises "remove_seq on an empty heap" Not_found (fun () ->
      ignore (Heap.remove_seq h 0));
  (* Interleaved pushes mean pop order need not be globally time-sorted,
     but ties on time must always pop in increasing seq order: if (t, s2)
     pops after (t, s1) with s2 < s1, then s2 was pushed first and sat in
     the heap while s1 popped — contradicting min-heap order. *)
  let order = List.rev !popped in
  let last_seq_at : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (t, s) ->
      (match Hashtbl.find_opt last_seq_at t with
      | Some prev when prev >= s ->
          Alcotest.failf "time %d popped seq %d after %d" t s prev
      | _ -> ());
      Hashtbl.replace last_seq_at t s)
    order;
  Alcotest.check_raises "negative time rejected"
    (Invalid_argument "Heap.push: negative time") (fun () ->
      Heap.push h ~time:(-1) ~seq:0 0)

(* [replace_min] against the same ordered-set model: pop the minimum and
   push a new entry in one call, interleaved with plain pushes and pops,
   as the engine's held sleep does. *)
let test_heap_replace_min () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:5L in
  let live = ref Live.empty and seq = ref 0 in
  let fresh t =
    let s = !seq in
    incr seq;
    live := Live.add (t, s) !live;
    s
  in
  let now = ref 0 in
  for _ = 1 to 20_000 do
    match Rng.int rng 4 with
    | 0 | 1 ->
        let t = !now + Rng.int rng 50 in
        let s = fresh t in
        Heap.push h ~tag:(s mod 7) ~time:t ~seq:s s
    | 2 when not (Heap.is_empty h) ->
        let ((t, s) as m) = Live.min_elt !live in
        Alcotest.(check (triple int int int)) "pop" (t, s, s mod 7)
          (Heap.min_time h, Heap.min_seq h, Heap.min_tag h);
        Alcotest.(check int) "popped value" s (Heap.pop h);
        live := Live.remove m !live;
        now := t
    | _ when not (Heap.is_empty h) ->
        let ((t, s) as m) = Live.min_elt !live in
        Alcotest.(check (triple int int int)) "replaced minimum" (t, s, s mod 7)
          (Heap.min_time h, Heap.min_seq h, Heap.min_tag h);
        live := Live.remove m !live;
        now := t;
        let t' = !now + Rng.int rng 50 in
        let s' = fresh t' in
        Alcotest.(check int) "replaced value" s
          (Heap.replace_min h ~time:t' ~seq:s' ~tag:(s' mod 7) s')
    | _ -> ()
  done;
  while not (Heap.is_empty h) do
    let ((t, s) as m) = Live.min_elt !live in
    Alcotest.(check (pair int int)) "drain" (t, s) (Heap.min_time h, Heap.min_seq h);
    ignore (Heap.pop h);
    live := Live.remove m !live
  done;
  Alcotest.(check bool) "model drained" true (Live.is_empty !live);
  Alcotest.check_raises "replace_min on an empty heap" Not_found (fun () ->
      ignore (Heap.replace_min h ~time:0 ~seq:0 ~tag:0 0))

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Heap.pop_min h))

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:5L in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_engine_sleep_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.spawn e ~name:"a" (fun () ->
         Engine.sleep 10L;
         log := ("a", Engine.now e) :: !log));
  ignore
    (Engine.spawn e ~name:"b" (fun () ->
         Engine.sleep 5L;
         log := ("b", Engine.now e) :: !log));
  ignore
    (Engine.spawn e ~name:"c" (fun () ->
         Alcotest.check_raises "negative sleep rejected"
           (Invalid_argument "Engine.sleep: negative") (fun () ->
             Engine.sleep (-1L))));
  Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "b fires before a"
    [ ("a", 10L); ("b", 5L) ]
    !log

let test_engine_spawn_nested () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.spawn e ~name:"outer" (fun () ->
         Engine.sleep 3L;
         ignore
           (Engine.spawn e ~name:"inner" (fun () ->
                Engine.sleep 4L;
                Alcotest.(check int64) "inner time" 7L (Engine.now e);
                incr hits));
         incr hits));
  Engine.run e;
  Alcotest.(check int) "both ran" 2 !hits

let test_engine_deadlock_detection () =
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"stuck" (fun () ->
         Engine.suspend (fun _waker -> () (* never woken *))));
  match Engine.run e with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "names the fiber" true (contains ~needle:"stuck" msg)

let test_engine_daemon_allows_exit () =
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~daemon:true ~name:"server" (fun () ->
         Engine.suspend (fun _ -> ())));
  ignore (Engine.spawn e ~name:"app" (fun () -> Engine.sleep 2L));
  Engine.run e;
  Alcotest.(check int64) "ends at app completion" 2L (Engine.now e)

let test_engine_fiber_failure () =
  let e = Engine.create () in
  ignore (Engine.spawn e ~name:"bad" (fun () -> failwith "boom"));
  match Engine.run e with
  | () -> Alcotest.fail "expected failure"
  | exception Engine.Fiber_failure ("bad", Failure _) -> ()
  | exception _ -> Alcotest.fail "wrong exception"

(* An uncaught fiber failure names the fiber and its inner exception,
   nested failures and registered printers included. *)
let test_fiber_failure_printer () =
  let check want exn =
    Alcotest.(check string) want want (Printexc.to_string exn)
  in
  check {|Engine.Fiber_failure("proc-1@4", Failure("boom"))|}
    (Engine.Fiber_failure ("proc-1@4", Failure "boom"));
  check {|Engine.Fiber_failure("a", Engine.Fiber_failure("b", Not_found))|}
    (Engine.Fiber_failure ("a", Engine.Fiber_failure ("b", Not_found)));
  check {|Engine.Fiber_failure("c", Errno.Error(EIO, read))|}
    (Engine.Fiber_failure
       ("c", Hare_proto.Errno.Error (Hare_proto.Errno.EIO, "read")))

let test_engine_run_for () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.spawn e ~name:"ticker" (fun () ->
         for _ = 1 to 10 do
           Engine.sleep 10L;
           incr hits
         done));
  Engine.run_for e 35L;
  Alcotest.(check int) "three ticks within budget" 3 !hits;
  Engine.run e;
  Alcotest.(check int) "rest completes" 10 !hits

let test_ivar_blocking () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  ignore (Engine.spawn e ~name:"reader" (fun () -> got := Ivar.read iv));
  ignore
    (Engine.spawn e ~name:"writer" (fun () ->
         Engine.sleep 50L;
         Ivar.fill iv 99));
  Engine.run e;
  Alcotest.(check int) "value" 99 !got

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "r%d" i)
         (fun () -> sum := !sum + Ivar.read iv))
  done;
  ignore (Engine.spawn e ~name:"w" (fun () -> Ivar.fill iv 7));
  Engine.run e;
  Alcotest.(check int) "all readers woke" 21 !sum

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () -> Ivar.fill iv 2)

let test_bqueue_fifo () =
  let e = Engine.create () in
  let q = Bqueue.create () in
  let out = ref [] in
  ignore
    (Engine.spawn e ~name:"consumer" (fun () ->
         for _ = 1 to 3 do
           out := Bqueue.pop q :: !out
         done));
  ignore
    (Engine.spawn e ~name:"producer" (fun () ->
         List.iter (Bqueue.push q) [ 1; 2; 3 ]));
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 3; 2; 1 ] !out

let test_bqueue_capacity_blocks () =
  let e = Engine.create () in
  let q = Bqueue.create ~capacity:1 () in
  let produced = ref 0 in
  ignore
    (Engine.spawn e ~name:"producer" (fun () ->
         for i = 1 to 3 do
           Bqueue.push q i;
           produced := i
         done));
  ignore
    (Engine.spawn e ~name:"consumer" (fun () ->
         Engine.sleep 100L;
         Alcotest.(check bool) "producer stalled" true (!produced < 3);
         for _ = 1 to 3 do
           ignore (Bqueue.pop q)
         done));
  Engine.run e;
  Alcotest.(check int) "all produced" 3 !produced

let test_condition_signal_fifo () =
  let e = Engine.create () in
  let c = Condition.create () in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           Condition.wait c;
           order := i :: !order))
  done;
  ignore
    (Engine.spawn e ~name:"signaller" (fun () ->
         Engine.sleep 1L;
         Condition.signal c;
         Engine.sleep 1L;
         Condition.broadcast c));
  Engine.run e;
  Alcotest.(check (list int)) "first waiter first" [ 3; 2; 1 ] !order

let test_core_compute_serializes () =
  let e = Engine.create () in
  let core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let finish = ref [] in
  for i = 1 to 2 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "f%d" i)
         (fun () ->
           Core_res.compute core 100;
           finish := (i, Engine.now e) :: !finish))
  done;
  Engine.run e;
  let times = List.map snd !finish in
  Alcotest.(check (list int64)) "fifo occupancy" [ 200L; 100L ] times

let test_core_ctx_switch_charged () =
  let e = Engine.create () in
  let core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:50 in
  ignore
    (Engine.spawn e ~name:"a" (fun () ->
         Core_res.compute core 100;
         Core_res.compute core 100));
  ignore (Engine.spawn e ~name:"b" (fun () -> Core_res.compute core 100));
  Engine.run e;
  (* a(100), then b(100 + 50 switch), then a again (100 + 50 switch). *)
  Alcotest.(check int) "two switches" 2 (Core_res.switches core);
  Alcotest.(check int64) "busy total" 400L (Core_res.busy_cycles core)

let test_core_same_fiber_no_switch () =
  let e = Engine.create () in
  let core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:50 in
  ignore
    (Engine.spawn e ~name:"only" (fun () ->
         for _ = 1 to 5 do
           Core_res.compute core 10
         done));
  Engine.run e;
  Alcotest.(check int) "no switches" 0 (Core_res.switches core);
  Alcotest.(check int64) "time" 50L (Engine.now e)

(* ---------- deadline primitives and deadlock probes -------------------- *)

let test_bqueue_pop_order_multi () =
  (* Several consumers blocked on an empty queue must be served in the
     order they blocked, one element each. *)
  let e = Engine.create () in
  let q = Bqueue.create () in
  let got = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "c%d" i)
         (fun () ->
           let v = Bqueue.pop q in
           got := (i, v) :: !got))
  done;
  ignore
    (Engine.spawn e ~name:"producer" (fun () ->
         Engine.sleep 5L;
         List.iter (Bqueue.push q) [ "a"; "b"; "c" ]));
  Engine.run e;
  Alcotest.(check (list (pair int string)))
    "fifo across blocked consumers"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !got)

let test_ivar_read_deadline () =
  let e = Engine.create () in
  let fast = Ivar.create () and slow = Ivar.create () in
  let results = ref [] in
  ignore
    (Engine.spawn e ~name:"reader" (fun () ->
         (* filled before the deadline: the timer must be a no-op *)
         results := ("fast", Ivar.read_deadline fast ~engine:e ~cycles:100L) :: !results;
         (* not filled in time: observe the timeout, then the late fill *)
         results := ("slow", Ivar.read_deadline slow ~engine:e ~cycles:10L) :: !results;
         Alcotest.(check int) "late fill still lands" 9 (Ivar.read slow)));
  ignore
    (Engine.spawn e ~name:"filler" (fun () ->
         Engine.sleep 3L;
         Ivar.fill fast 1;
         Engine.sleep 50L;
         Ivar.fill slow 9));
  Engine.run e;
  Alcotest.(check (list (pair string (option int))))
    "deadline observations"
    [ ("fast", Some 1); ("slow", None) ]
    (List.rev !results);
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Ivar.read_deadline: negative deadline") (fun () ->
      ignore (Ivar.read_deadline fast ~engine:e ~cycles:(-1L)))

let test_condition_wait_deadline () =
  let e = Engine.create () in
  let c = Condition.create () in
  let log = ref [] in
  ignore
    (Engine.spawn e ~name:"expires" (fun () ->
         let r = Condition.wait_deadline c ~engine:e ~cycles:10L in
         log := ("expires", r = `Timeout) :: !log));
  ignore
    (Engine.spawn e ~name:"wins" (fun () ->
         let r = Condition.wait_deadline c ~engine:e ~cycles:100L in
         log := ("wins", r = `Signalled) :: !log));
  ignore
    (Engine.spawn e ~name:"signaller" (fun () ->
         Engine.sleep 50L;
         (* the first waiter timed out at 10 and must NOT absorb this *)
         Condition.signal c));
  Engine.run e;
  Alcotest.(check (list (pair string bool)))
    "timed-out waiter does not steal the signal"
    [ ("expires", true); ("wins", true) ]
    (List.rev !log);
  Alcotest.(check int) "queue drained" 0 (Condition.waiters c)

let test_deadlock_reports_mailbox_depths () =
  let e = Engine.create () in
  let q : int Bqueue.t = Bqueue.create () in
  let _ : int = Engine.register_probe e ~name:"fs0" (fun () -> Bqueue.length q) in
  Bqueue.push q 1;
  Bqueue.push q 2;
  ignore
    (Engine.spawn e ~name:"wedged" (fun () -> Engine.suspend (fun _ -> ())));
  (match Engine.run e with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "lists pending depth" true
        (contains ~needle:"fs0=2" msg));
  (* and with nothing queued, it says so instead of listing noise *)
  let e2 = Engine.create () in
  let _ : int = Engine.register_probe e2 ~name:"fs0" (fun () -> 0) in
  ignore
    (Engine.spawn e2 ~name:"wedged2" (fun () -> Engine.suspend (fun _ -> ())));
  match Engine.run e2 with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "no undelivered messages" true
        (contains ~needle:"no undelivered" msg)

let test_probe_unregister () =
  let e = Engine.create () in
  let a = Engine.register_probe e ~name:"alpha" (fun () -> 3) in
  let b = Engine.register_probe e ~name:"beta" (fun () -> 5) in
  Alcotest.(check int) "two probes" 2 (Engine.probe_count e);
  Alcotest.(check (list string))
    "both report" [ "alpha=3"; "beta=5" ] (Engine.pending_depths e);
  Engine.unregister_probe e a;
  Alcotest.(check int) "one left" 1 (Engine.probe_count e);
  Alcotest.(check (list string)) "dead probe gone" [ "beta=5" ]
    (Engine.pending_depths e);
  Engine.unregister_probe e a;
  (* idempotent *)
  Alcotest.(check int) "still one" 1 (Engine.probe_count e);
  (* slot recycling: the freed slot is reused, the registry stays compact *)
  let c = Engine.register_probe e ~name:"gamma" (fun () -> 7) in
  Alcotest.(check int) "slot recycled" a c;
  Alcotest.(check (list string))
    "recycled slot reports" [ "gamma=7"; "beta=5" ] (Engine.pending_depths e);
  Engine.unregister_probe e b;
  Engine.unregister_probe e c;
  Alcotest.(check int) "empty" 0 (Engine.probe_count e);
  Alcotest.(check (list string)) "silent" [] (Engine.pending_depths e)

let test_live_fiber_accounting () =
  (* Finished fibers must be pruned from the registry (no leak on long
     open-loop runs) while blocked ones stay visible; the peak and
     spawned counters track the churn. *)
  let e = Engine.create () in
  Alcotest.(check int) "empty registry" 0 (Engine.registered_fibers e);
  let running = ref 0 in
  ignore
    (Engine.spawn e ~name:"root" (fun () ->
         for wave = 1 to 4 do
           for i = 1 to 8 do
             ignore
               (Engine.spawn e
                  ~name:(Printf.sprintf "w%d.%d" wave i)
                  (fun () ->
                    incr running;
                    Engine.sleep 10L;
                    decr running))
           done;
           Engine.sleep 100L;
           (* wave drained: registry holds only root *)
           Alcotest.(check int)
             (Printf.sprintf "wave %d drained" wave)
             1 (Engine.registered_fibers e)
         done));
  Engine.run e;
  Alcotest.(check int) "all pruned at exit" 0 (Engine.registered_fibers e);
  Alcotest.(check int) "spawned total" 33 (Engine.spawned_fibers e);
  (* peak = root + one full wave of 8 (waves never overlap) *)
  Alcotest.(check int) "peak live" 9 (Engine.peak_fibers e);
  Alcotest.(check bool) "events counted" true (Engine.events_executed e > 0);
  (* a crashing fiber is pruned too (exnc path) *)
  let e2 = Engine.create () in
  ignore (Engine.spawn e2 ~name:"boom" (fun () -> failwith "crash"));
  (match Engine.run e2 with
  | () -> Alcotest.fail "expected failure"
  | exception Engine.Fiber_failure _ -> ());
  Alcotest.(check int) "crashed fiber pruned" 0 (Engine.registered_fibers e2)

let test_current_fid_tracking () =
  (* [current_fid] must match [fiber_id (self ())] at every resume point:
     fresh start, after sleep, and after a suspend/waker round trip. *)
  let e = Engine.create () in
  let iv = Ivar.create () in
  let check_here where f =
    Alcotest.(check int) where (Engine.fiber_id f) (Engine.current_fid e)
  in
  ignore
    (Engine.spawn e ~name:"a" (fun () ->
         let f = Engine.self () in
         check_here "a: at start" f;
         Engine.sleep 5L;
         check_here "a: after sleep" f;
         Alcotest.(check int) "a: ivar value" 42 (Ivar.read iv);
         check_here "a: after suspend" f));
  ignore
    (Engine.spawn e ~name:"b" (fun () ->
         let f = Engine.self () in
         check_here "b: at start" f;
         Engine.sleep 20L;
         check_here "b: after sleep" f;
         Ivar.fill iv 42;
         check_here "b: after fill" f));
  Engine.run e;
  Alcotest.(check int) "idle engine" (-1) (Engine.current_fid e)

(* A waker fires exactly once: a second call, or a call after its fiber
   has moved on to a later suspension, fails instead of resuming the
   fiber out of turn. *)
let test_waker_invoked_twice () =
  let e = Engine.create () in
  let wakers = ref [] in
  let resumed = ref 0 in
  let twice = Failure "waker for fiber sleeper invoked twice" in
  ignore
    (Engine.spawn e ~name:"sleeper" (fun () ->
         for _ = 1 to 2 do
           Engine.suspend (fun w -> wakers := w :: !wakers);
           incr resumed
         done));
  ignore
    (Engine.spawn e ~name:"waker" (fun () ->
         let first = List.hd !wakers in
         first ();
         Alcotest.check_raises "second call" twice first;
         Engine.sleep 1L;
         Alcotest.(check int) "resumed once" 1 !resumed;
         Alcotest.check_raises "stale waker" twice first;
         Engine.sleep 1L;
         Alcotest.(check int) "stale waker did not resume" 1 !resumed;
         (List.hd !wakers) ()));
  Engine.run e;
  Alcotest.(check int) "both suspensions resumed" 2 !resumed

(* A sleep parks the fiber's own continuation and pushes its resume
   closure made at spawn: no handler or event closure per sleep, and the
   effect is a constant, so no effect value either (2 words measured). The
   words are averaged over 10k sleeps after a warm-up, and include the
   engine's own work between them (event pop, resume, handler
   dispatch). *)
let test_sleep_allocation () =
  let e = Engine.create () in
  let words = ref nan in
  ignore
    (Engine.spawn e ~name:"sleeper" (fun () ->
         for _ = 1 to 1_000 do
           Engine.sleep_cycles 1
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to 10_000 do
           Engine.sleep_cycles 1
         done;
         words := (Gc.minor_words () -. w0) /. 10_000.));
  Engine.run e;
  if !words > 3. then
    Alcotest.failf "one Engine.sleep_cycles allocated %.1f words" !words

(* The event loop's short cuts — a sleep's resume held back and swapped
   in for the heap minimum in one sift, and a sleep due strictly before
   every pending event taken in place without the effect — must run the
   same events in the same order as the plain heap. A random program of
   fibers that sleep (both ways), set timers, park and wake each other
   and spawn children runs three ways: [run]; [run] with an explorer
   that always picks the lowest seq (which turns both short cuts off and
   picks each event through [min_entries]/[remove_seq]); and [run_for]
   in random slices, with and without that explorer. The Step streams
   (time, seq, tag) and every fiber's observed clock must agree, the
   stream must be exactly its own sort by (time, seq), and no slice may
   run a step past its limit. *)
type action =
  | Sleep_on of int  (** [Engine.sleep_on] *)
  | Sleep of int  (** [Engine.sleep_cycles]: always the effect *)
  | Timer of int  (** [schedule_at] that many cycles ahead *)
  | Park
  | Wake
  | Child of int  (** spawn a fiber that sleeps that long *)

let action_gen =
  let open QCheck.Gen in
  let delay = oneofl [ 0; 0; 1; 2; 3; 7; 40 ] in
  frequency
    [
      (5, map (fun d -> Sleep_on d) delay);
      (2, map (fun d -> Sleep d) delay);
      (2, map (fun d -> Timer d) delay);
      (1, return Park);
      (2, return Wake);
      (1, map (fun d -> Child d) delay);
    ]

let program_gen =
  let open QCheck.Gen in
  pair
    (list_size (int_range 1 6) (list_size (int_range 0 14) action_gen))
    (list_size (int_range 1 8) (int_range 0 30))

let show_action = function
  | Sleep_on d -> Printf.sprintf "sleep_on %d" d
  | Sleep d -> Printf.sprintf "sleep %d" d
  | Timer d -> Printf.sprintf "timer %d" d
  | Park -> "park"
  | Wake -> "wake"
  | Child d -> Printf.sprintf "child %d" d

let run_program ~mode (fibers, slices) =
  let e = Engine.create () in
  let steps = ref [] and log = ref [] in
  Obs.subscribe (Engine.obs e) Obs.steps (function
    | Obs.Step { time; seq; tag } -> steps := (time, seq, tag) :: !steps
    | _ -> ());
  let note who = log := (who, Engine.now_cycles e) :: !log in
  let parked = Queue.create () in
  List.iteri
    (fun i actions ->
      let name = Printf.sprintf "f%d" i in
      (* daemons: a fiber left parked at the end is not a deadlock *)
      ignore
        (Engine.spawn e ~daemon:true ~name (fun () ->
             List.iteri
               (fun j a ->
                 (match a with
                 | Sleep_on d -> Engine.sleep_on e d
                 | Sleep d -> Engine.sleep_cycles d
                 | Timer d ->
                     let at = Int64.of_int (Engine.now_cycles e + d) in
                     Engine.schedule_at e at (fun () -> note (name ^ "/timer"))
                 | Park -> Engine.suspend (fun w -> Queue.push w parked)
                 | Wake -> Option.iter (fun w -> w ()) (Queue.take_opt parked)
                 | Child d ->
                     let child = Printf.sprintf "%s.%d" name j in
                     ignore
                       (Engine.spawn e ~daemon:true ~name:child (fun () ->
                            Engine.sleep_on e d;
                            note child)));
                 note name)
               actions)))
    fibers;
  let explore () = Engine.set_explorer e (fun ~time:_ _ -> 0) in
  (match mode with
  | `Run -> Engine.run e
  | `Explorer ->
      explore ();
      Engine.run e
  | `Slices explorer ->
      if explorer then explore ();
      List.iter
        (fun b ->
          let limit = Engine.now_cycles e + b in
          Engine.run_for e (Int64.of_int b);
          if List.exists (fun (t, _, _) -> t > limit) !steps then
            QCheck.Test.fail_reportf "a step ran past run_for's limit %d" limit;
          note "slice")
        slices;
      Engine.run e);
  (List.rev !steps, List.rev !log)

let prop_event_order =
  QCheck.Test.make ~name:"held and effect-free sleeps keep (time, seq) order"
    ~count:300
    (QCheck.make program_gen ~print:(fun (fibers, slices) ->
         String.concat " | "
           (List.map (fun f -> String.concat "; " (List.map show_action f)) fibers)
         ^ " / slices " ^ String.concat "," (List.map string_of_int slices)))
    (fun prog ->
      let ((steps, _) as plain) = run_program ~mode:`Run prog in
      let key (t, s, _) = (t, s) in
      let sorted =
        List.sort (fun a b -> compare (key a) (key b)) steps
      in
      if steps <> sorted then QCheck.Test.fail_report "steps out of (time, seq) order";
      if run_program ~mode:`Explorer prog <> plain then
        QCheck.Test.fail_report "differs from the explorer's pick-lowest run";
      let ((sliced_steps, _) as sliced) = run_program ~mode:(`Slices false) prog in
      if sliced_steps <> steps then
        QCheck.Test.fail_report "differs when run in run_for slices";
      if run_program ~mode:(`Slices true) prog <> sliced then
        QCheck.Test.fail_report "slices differ from the explorer's";
      true)

(* A sleep that is the next event takes its step in place: no effect, no
   allocation. *)
let test_sleep_on_in_place () =
  let e = Engine.create () in
  let words = ref nan in
  ignore
    (Engine.spawn e ~name:"alone" (fun () ->
         Engine.sleep_on e 1;
         let w0 = Gc.minor_words () in
         for _ = 1 to 10_000 do
           Engine.sleep_on e 3
         done;
         words := (Gc.minor_words () -. w0) /. 10_000.));
  Engine.run e;
  Alcotest.(check int64) "clock advanced" 30_001L (Engine.now e);
  Alcotest.(check int) "every sleep a step" 10_002 (Engine.events_executed e);
  if !words > 0. then
    Alcotest.failf "an in-place Engine.sleep_on allocated %.1f words" !words

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "sim.heap",
      [
        tc "ordering" `Quick test_heap_ordering;
        tc "large" `Quick test_heap_large;
        tc "empty" `Quick test_heap_empty;
        tc "property 100k" `Quick test_heap_property_100k;
        tc "replace_min" `Quick test_heap_replace_min;
      ] );
    ( "sim.rng",
      [
        tc "deterministic" `Quick test_rng_deterministic;
        tc "bounds" `Quick test_rng_bounds;
        tc "split" `Quick test_rng_split_independent;
      ] );
    ( "sim.engine",
      [
        tc "sleep order" `Quick test_engine_sleep_order;
        tc "nested spawn" `Quick test_engine_spawn_nested;
        tc "deadlock detection" `Quick test_engine_deadlock_detection;
        tc "daemons allow exit" `Quick test_engine_daemon_allows_exit;
        tc "fiber failure" `Quick test_engine_fiber_failure;
        tc "fiber failure printer" `Quick test_fiber_failure_printer;
        tc "run_for budget" `Quick test_engine_run_for;
        tc "deadlock mailbox depths" `Quick test_deadlock_reports_mailbox_depths;
        tc "probe unregister" `Quick test_probe_unregister;
        tc "live fiber accounting" `Quick test_live_fiber_accounting;
        tc "current fid tracking" `Quick test_current_fid_tracking;
        tc "waker invoked twice" `Quick test_waker_invoked_twice;
        tc "sleep allocation" `Quick test_sleep_allocation;
        tc "sleep_on in place" `Quick test_sleep_on_in_place;
        QCheck_alcotest.to_alcotest prop_event_order;
      ] );
    ( "sim.ivar",
      [
        tc "blocking read" `Quick test_ivar_blocking;
        tc "multiple readers" `Quick test_ivar_multiple_readers;
        tc "double fill" `Quick test_ivar_double_fill;
        tc "read deadline" `Quick test_ivar_read_deadline;
      ] );
    ( "sim.bqueue",
      [
        tc "fifo" `Quick test_bqueue_fifo;
        tc "capacity blocks" `Quick test_bqueue_capacity_blocks;
        tc "blocked pop order" `Quick test_bqueue_pop_order_multi;
      ] );
    ( "sim.condition",
      [
        tc "signal fifo" `Quick test_condition_signal_fifo;
        tc "wait deadline" `Quick test_condition_wait_deadline;
      ] );
    ( "sim.core",
      [
        tc "serializes" `Quick test_core_compute_serializes;
        tc "ctx switch" `Quick test_core_ctx_switch_charged;
        tc "no spurious switch" `Quick test_core_same_fiber_no_switch;
      ] );
  ]
