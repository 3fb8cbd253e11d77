(* One repetition of a workload on a freshly booted 40-core Hare machine:
   setup, the timed region, verification. Driver.run is not used because
   it cannot time individual calls; here every POSIX call of the timed
   region goes through [call], which reads the simulated clock around it
   and keeps one span per call in memory. *)

module Api = Hare_api.Api
module Config = Hare_config.Config
module Machine = Hare.Machine
module Process = Hare_proc.Process
open Hare_proto

(* Calls the recorder tells apart; the first [reported] are reported one
   by one, the others only count as completed calls. *)
let call_names =
  [| "open"; "close"; "read"; "write"; "fsync"; "rename"; "unlink"; "readdir";
     "stat"; "spawn"; "waitpid"; "lseek"; "mkdir" |]

let reported = 11

let c_open = 0
and c_close = 1
and c_read = 2
and c_write = 3
and c_fsync = 4
and c_rename = 5
and c_unlink = 6
and c_readdir = 7
and c_stat = 8
and c_spawn = 9
and c_waitpid = 10
and c_lseek = 11
and c_mkdir = 12

(* Spans as flat ints, four per call: call, worker, start, end (cycles). *)
type recorder = {
  mutable on : bool;
  mutable spans : int array;
  mutable len : int;
  mutable attempted : int;
  mutable failed : int;
}

let record r call w t0 t1 =
  if r.len + 4 > Array.length r.spans then begin
    let a = Array.make (2 * Array.length r.spans) 0 in
    Array.blit r.spans 0 a 0 r.len;
    r.spans <- a
  end;
  let s = r.spans and i = r.len in
  s.(i) <- call;
  s.(i + 1) <- w;
  s.(i + 2) <- t0;
  s.(i + 3) <- t1;
  r.len <- i + 4

type st = {
  wl : Gen.t;
  api : Process.t Api.t;
  rc : recorder;
  walked : (int * int) array;  (** per worker: entries its walks saw *)
  mutable bad : int;  (** failed output checks and setup errors *)
}

let call st ~w kind p f =
  let rc = st.rc in
  if not rc.on then f ()
  else begin
    rc.attempted <- rc.attempted + 1;
    let t0 = Int64.to_int (st.api.Api.now_cycles p) in
    match f () with
    | v ->
        record rc kind w t0 (Int64.to_int (st.api.Api.now_cycles p));
        v
    | exception (Errno.Error _ as e) ->
        rc.failed <- rc.failed + 1;
        raise e
  end

let wflags =
  { Types.rd = false; wr = true; creat = false; excl = false; trunc = false; append = false }

let rec write_all st ~w p fd s =
  let n = call st ~w c_write p (fun () -> st.api.Api.write p fd s) in
  if n <= 0 then Errno.raise_errno Errno.EPIPE "write_all"
  else if n < String.length s then
    write_all st ~w p fd (String.sub s n (String.length s - n))

let run_op st ~w ~slots p (op : Gen.op) =
  let a = st.api in
  let c kind f = call st ~w kind p f in
  let expect_len got len = if String.length got <> len then st.bad <- st.bad + 1 in
  match op with
  | Mkdir path -> c c_mkdir (fun () -> a.mkdir p ~dist:true path)
  | Create { path; len; tag } ->
      let fd = c c_open (fun () -> a.openf p path Types.flags_w) in
      write_all st ~w p fd (Gen.body ~tag ~len);
      c c_close (fun () -> a.close p fd)
  | Unlink path -> c c_unlink (fun () -> a.unlink p path)
  | Rename { src; dst } -> c c_rename (fun () -> a.rename p src dst)
  | Deliver ({ helper = true; _ } as d) ->
      (* a failing helper's calls are already counted as failed *)
      let pid =
        c c_spawn (fun () ->
            a.spawn p ~prog:"pb-deliver"
              ~args:[ string_of_int w; d.tmp; d.dst; string_of_int d.len; string_of_int d.tag ])
      in
      ignore (c c_waitpid (fun () -> a.waitpid p pid))
  | Deliver { tmp; dst; len; tag; helper = false } ->
      let fd = c c_open (fun () -> a.openf p tmp Types.flags_w) in
      write_all st ~w p fd (Gen.body ~tag ~len);
      c c_fsync (fun () -> a.fsync p fd);
      c c_close (fun () -> a.close p fd);
      c c_rename (fun () -> a.rename p tmp dst)
  | Pickup { path; len } ->
      let fd = c c_open (fun () -> a.openf p path Types.flags_r) in
      expect_len (c c_read (fun () -> a.read p fd ~len)) len;
      c c_close (fun () -> a.close p fd);
      c c_unlink (fun () -> a.unlink p path)
  | Stat path -> ignore (c c_stat (fun () -> a.stat p path))
  | Probe path -> ignore (c c_stat (fun () -> a.exists p path))
  | Walk dir ->
      let entries = c c_readdir (fun () -> a.readdir p dir) in
      let d, f = st.walked.(w) in
      let nd = List.length (List.filter (fun (_, t) -> t = Types.Dir) entries) in
      st.walked.(w) <- (d + nd, f + List.length entries - nd);
      List.iter
        (fun (name, _) -> ignore (c c_stat (fun () -> a.stat p (dir ^ "/" ^ name))))
        entries
  | Read_file { path; len } ->
      let fd = c c_open (fun () -> a.openf p path Types.flags_r) in
      expect_len (c c_read (fun () -> a.read p fd ~len)) len;
      c c_close (fun () -> a.close p fd)
  | Open_slot { slot; path; write } ->
      slots.(slot) <-
        c c_open (fun () -> a.openf p path (if write then wflags else Types.flags_r))
  | Write_slot { slot; tag } ->
      write_all st ~w p slots.(slot) (Gen.body ~tag ~len:Gen.block)
  | Seek_slot { slot; off } ->
      ignore (c c_lseek (fun () -> a.lseek p slots.(slot) ~pos:off Types.Seek_set))
  | Read_at { slot; off } ->
      let fd = slots.(slot) in
      ignore (c c_lseek (fun () -> a.lseek p fd ~pos:off Types.Seek_set));
      expect_len (c c_read (fun () -> a.read p fd ~len:Gen.block)) Gen.block
  | Close_slot slot -> c c_close (fun () -> a.close p slots.(slot))
  | Check_file { path; expect } ->
      let fd = a.openf p path Types.flags_r in
      let got = Api.read_to_eof a p fd in
      a.close p fd;
      if not (String.equal got (expect ())) then st.bad <- st.bad + 1
  | Check_dir { path; names } ->
      let got = List.map fst (a.readdir p path) in
      if List.sort compare got <> List.sort compare names then st.bad <- st.bad + 1

let run_script st ~w p ops =
  let slots = Array.make 64 (-1) in
  Array.iter
    (fun op ->
      try run_op st ~w ~slots p op
      with Errno.Error _ -> if not st.rc.on then st.bad <- st.bad + 1)
    ops;
  0

(* The mail helper: one delivery in its own process, on the core the
   exec policy picks. *)
let deliver_helper st p = function
  | [ w; tmp; dst; len; tag ] -> (
      let w = int_of_string w in
      let op =
        Gen.Deliver
          { tmp; dst; len = int_of_string len; tag = int_of_string tag; helper = false }
      in
      try
        run_op st ~w ~slots:[||] p op;
        0
      with Errno.Error _ -> 1)
  | _ -> 2

(* Init process of one phase: one process per worker running [prog],
   waited for. Returns the simulated start and end of the phase and the
   host CPU time of each [slice] of simulated cycles it ran in: the
   simulation is deterministic, so slice i does the same work in every
   repetition and the best of each slice can be taken separately. *)
let phase st m ~prog ~before ~slice =
  let span = ref (0, 0) in
  let a = st.api in
  let init, _ =
    Machine.spawn_init m ~name:prog (fun p _ ->
        before p;
        let t0 = Int64.to_int (a.Api.now_cycles p) in
        let pids =
          List.init st.wl.Gen.workers (fun w -> a.spawn p ~prog ~args:[ string_of_int w ])
        in
        List.iter (fun pid -> if a.waitpid p pid <> 0 then st.bad <- st.bad + 1) pids;
        span := (t0, Int64.to_int (a.Api.now_cycles p));
        0)
  in
  let eng = Machine.engine m in
  let cpu = ref [] and progress = ref true in
  while !progress && Machine.exit_status m init = None do
    let events = Hare_sim.Engine.events_executed eng and c = Sys.time () in
    Machine.run_for m slice;
    cpu := (Sys.time () -. c) :: !cpu;
    progress := Hare_sim.Engine.events_executed eng > events
  done;
  Machine.run m;
  (!span, Array.of_list (List.rev !cpu))

(* ---- counters read from public accessors, around the timed region ---- *)

type snap = {
  events : int;
  fibers : int;
  rpcs : int;
  invals : int;
  srv_ops : int array;
  pc : int array;  (** hits, misses, evictions, writebacks, invalidated *)
  dc : int array;  (** dircache hits, misses, invalidations *)
  busy : int array;
  switches : int;
  minor_words : float;
  major : int;
}

let snapshot m =
  let eng = Machine.engine m in
  let clients = Machine.clients m in
  let pc = Array.make 5 0 and dc = Array.make 3 0 in
  Array.iter
    (fun c ->
      let s = Hare_mem.Pcache.stats (Hare_client.Client.pcache c) in
      let open Hare_mem.Pcache in
      List.iteri (fun i v -> pc.(i) <- pc.(i) + v)
        [ s.hits; s.misses; s.evictions; s.writebacks; s.invalidated ];
      let d = Hare_client.Client.dircache c in
      let open Hare_client.Dircache in
      List.iteri (fun i v -> dc.(i) <- dc.(i) + v) [ hits d; misses d; invalidations d ])
    clients;
  let cores = (Machine.kctx m).Process.k_cores in
  {
    events = Hare_sim.Engine.events_executed eng;
    fibers = Hare_sim.Engine.spawned_fibers eng;
    rpcs = Machine.total_rpcs m;
    invals = Machine.total_invals m;
    srv_ops =
      Array.map
        (fun s -> Hare_stats.Opcount.total (Hare_server.Server.ops s))
        (Machine.servers m);
    pc;
    dc;
    busy = Array.map (fun c -> Int64.to_int (Hare_sim.Core_res.busy_cycles c)) cores;
    switches = Array.fold_left (fun n c -> n + Hare_sim.Core_res.switches c) 0 cores;
    minor_words = Gc.minor_words ();
    major = (Gc.quick_stat ()).Gc.major_collections;
  }

type rep = {
  setup_cpu : float;  (** boot + setup, host CPU seconds *)
  slices : float array;
      (** host CPU seconds of each {!slice} of the timed region *)
  peak_words : int;
      (** the process's peak heap at the end of the timed region *)
  ops : int;  (** completed POSIX calls of the timed region *)
  attempted : int;
  failed : int;  (** calls that raised an errno *)
  bad : int;  (** failed output checks *)
  det : (string * float) list;
      (** simulated and count-type metrics: identical across repetitions
          and between traced and untraced runs *)
  host : (string * float) list;  (** host allocation counters *)
  shares : (string * float) list;  (** trace bucket shares; traced runs only *)
  spans : int array;  (** traced runs: the recorder's spans, [4 * ops] ints *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    float_of_int sorted.(max 0 (min (n - 1) (k - 1)))

let sorted_durations spans ~len keep =
  let l = ref [] in
  let i = ref 0 in
  while !i < len do
    if keep spans.(!i) then l := (spans.(!i + 3) - spans.(!i + 2)) :: !l;
    i := !i + 4
  done;
  let a = Array.of_list !l in
  Array.sort compare a;
  a

let config ~traced =
  { Config.default with Config.trace_enabled = traced; trace_ring = false }

(* Simulated cycles per host-timing slice of a phase. *)
let slice = 100_000L

let run ~traced (wl : Gen.t) =
  Gc.compact ();
  let c0 = Sys.time () in
  let m = Machine.boot (config ~traced) in
  let api = Hare_experiments.World.Hare_w.api m in
  let st =
    {
      wl;
      api;
      rc = { on = false; spans = Array.make 65536 0; len = 0; attempted = 0; failed = 0 };
      walked = Array.make wl.workers (0, 0);
      bad = 0;
    }
  in
  let script name scripts =
    api.Api.register_program name (fun p -> function
      | [ w ] ->
          let w = int_of_string w in
          run_script st ~w p scripts.(w)
      | _ -> 2)
  in
  script "pb-setup" wl.setup;
  script "pb-work" wl.work;
  script "pb-verify" wl.verify;
  api.Api.register_program "pb-deliver" (deliver_helper st);
  ignore
    (phase st m ~prog:"pb-setup" ~slice ~before:(fun p ->
         List.iter (fun (path, dist) -> api.Api.mkdir p ~dist path) wl.top));
  let c1 = Sys.time () in
  (* The timed region reports only its own activity. *)
  Machine.reset_perf m;
  Array.iter Hare_msg.Rpc.reset_peak (Machine.kctx m).Process.k_sched_ports;
  Option.iter Hare_trace.Trace.reset_profile (Machine.trace m);
  let s0 = snapshot m in
  st.rc.on <- true;
  let (t0, t1), slices = phase st m ~prog:"pb-work" ~slice ~before:ignore in
  st.rc.on <- false;
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let s1 = snapshot m in
  let shares =
    match Machine.trace m with
    | None -> []
    | Some tr ->
        let b = Array.make Hare_trace.Trace.nbuckets 0L in
        List.iter
          (fun (row : Hare_trace.Trace.row) ->
            Array.iteri (fun i v -> b.(i) <- Int64.add b.(i) v) row.r_buckets)
          (Hare_trace.Trace.profile tr);
        let total = Int64.to_float (Array.fold_left Int64.add 0L b) in
        let share k = Int64.to_float b.(Hare_trace.Trace.bucket_index k) /. total in
        Hare_trace.Trace.
          [
            ("client.compute_share", share Compute);
            ("msg.send_share", share Send);
            ("server.queue_share", share Queue);
            ("server.dispatch_share", share Dispatch);
            ("mem.cache_share", share Cache);
            ("mem.dram_share", share Dram);
          ]
  in
  let peak_srv =
    Array.fold_left (fun n s -> max n (Hare_server.Server.peak_queue s)) 0 (Machine.servers m)
  in
  let peak_sched =
    Array.fold_left
      (fun n ep -> max n (Hare_msg.Rpc.peak_pending ep))
      0 (Machine.kctx m).Process.k_sched_ports
  in
  ignore (phase st m ~prog:"pb-verify" ~slice ~before:ignore);
  Array.iteri (fun w seen -> if seen <> wl.walk_expect.(w) then st.bad <- st.bad + 1) st.walked;
  let rc = st.rc in
  let ops = rc.len / 4 in
  let fops = float_of_int (max 1 ops) in
  let cycles = t1 - t0 in
  let per_op a b = float_of_int (b - a) /. fops in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let all = sorted_durations rc.spans ~len:rc.len (fun _ -> true) in
  let posix =
    List.concat
      (List.init reported (fun k ->
           let d = sorted_durations rc.spans ~len:rc.len (fun c -> c = k) in
           let name = "posix." ^ call_names.(k) in
           [
             (name ^ ".n", float_of_int (Array.length d));
             (name ^ ".p50_cycles", percentile d 0.50);
             (name ^ ".p99_cycles", percentile d 0.99);
           ]))
  in
  let srv = Array.mapi (fun i v -> v - s0.srv_ops.(i)) s1.srv_ops in
  let served = List.filter (fun v -> v > 0) (Array.to_list srv) in
  let imbalance =
    match served with
    | [] -> 1.0
    | l ->
        float_of_int (List.fold_left max 0 l)
        *. float_of_int (List.length l)
        /. float_of_int (List.fold_left ( + ) 0 l)
  in
  let util = Array.mapi (fun i v -> float_of_int (v - s0.busy.(i)) /. float_of_int cycles) s1.busy in
  let pc k = s1.pc.(k) - s0.pc.(k) and dc k = s1.dc.(k) - s0.dc.(k) in
  let det =
    [
      ( "sim_ops_per_s",
        fops /. Hare_config.Costs.seconds_of_cycles Config.default.costs (Int64.of_int cycles) );
      ("sim_p50_cycles", percentile all 0.50);
      ("sim_p99_cycles", percentile all 0.99);
    ]
    @ posix
    @ [
        ("sim.events_per_op", per_op s0.events s1.events);
        ("sim.fibers_per_op", per_op s0.fibers s1.fibers);
        ("msg.rpcs_per_op", per_op s0.rpcs s1.rpcs);
        ("msg.invals_per_op", per_op s0.invals s1.invals);
        ("msg.peak_pending", float_of_int (max peak_srv peak_sched));
        ("server.ops_per_op", float_of_int (Array.fold_left ( + ) 0 srv) /. fops);
        ("server.peak_queue", float_of_int peak_srv);
        ("server.imbalance", imbalance);
        ("client.dircache_hit_ratio", ratio (dc 0) (dc 1));
        ("client.dircache_invals_per_op", float_of_int (dc 2) /. fops);
        ("pcache.hit_ratio", ratio (pc 0) (pc 1));
        ("pcache.misses_per_op", float_of_int (pc 1) /. fops);
        ("pcache.evictions_per_op", float_of_int (pc 2) /. fops);
        ("pcache.writebacks_per_op", float_of_int (pc 3) /. fops);
        ("pcache.invalidated_per_op", float_of_int (pc 4) /. fops);
        ( "core.util_mean",
          Array.fold_left ( +. ) 0.0 util /. float_of_int (Array.length util) );
        ("core.util_max", Array.fold_left max 0.0 util);
        ("core.switches_per_op", per_op s0.switches s1.switches);
      ]
  in
  {
    setup_cpu = c1 -. c0;
    slices;
    peak_words;
    ops;
    attempted = rc.attempted;
    failed = rc.failed;
    bad = st.bad;
    det;
    host =
      [
        ("host.minor_words_per_op", (s1.minor_words -. s0.minor_words) /. fops);
        ("host.major_gcs", float_of_int (s1.major - s0.major));
      ];
    shares;
    spans = (if traced then Array.sub rc.spans 0 rc.len else [||]);
  }
