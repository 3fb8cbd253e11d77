open Hare_sim
open Hare_proto
module Config = Hare_config.Config
module Costs = Hare_config.Costs
module Server = Hare_server.Server
module Client = Hare_client.Client
module Fdtable = Hare_client.Fdtable
module Process = Hare_proc.Process
module Program = Hare_proc.Program
module Place = Hare_place.Place
module Metrics = Hare_metrics.Metrics
module Robust = Hare_stats.Robust
module Perf = Hare_stats.Perf

type t = {
  engine : Engine.t;
  config : Config.t;
  cores : Core_res.t array;
  dram : Hare_mem.Dram.t;
  servers : Server.t array;
  clients : Client.t array;
  scheds : Hare_sched.Sched_server.t array;
  registry : Program.t;
  kctx : Process.kctx;
  injector : Hare_fault.Injector.t option;
  place : Place.t option;
  trace : Hare_trace.Trace.t option;
  check : Hare_check.Check.t option;
  metrics : Metrics.t option;
}

let boot (config : Config.t) =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.boot: " ^ msg));
  let engine = Engine.create ~seed:config.seed () in
  let costs = config.costs in
  let ncores = config.ncores in
  let obs = Engine.obs engine in
  (* Observers subscribe to the engine's bus before any fiber runs or
     any message is sent, so every request-id allocation is part of the
     deterministic boot order and every message edge is seen.
     Host-side only — they never charge simulated cycles. *)
  let trace =
    if not config.trace_enabled then None
    else begin
      let tr =
        Hare_trace.Trace.create
          ~cap:(if config.trace_ring then config.trace_cap else 0)
          ~retain:config.trace_retain obs
      in
      for i = 0 to ncores - 1 do
        Hare_trace.Trace.declare_track tr ~track:i
          ~name:(Printf.sprintf "core %d" i)
      done;
      Hare_trace.Trace.declare_track tr ~track:ncores ~name:"dram";
      Some tr
    end
  in
  let check =
    if not config.check_enabled then None
    else begin
      let chk = Hare_check.Check.create ~ncores () in
      Hare_check.Check.attach chk obs;
      Some chk
    end
  in
  let cores =
    Array.init ncores (fun i ->
        Core_res.create engine ~id:i
          ~socket:(Config.socket_of_core config i)
          ~ctx_switch:costs.ctx_switch)
  in
  (* [nservers] is the number of *logical* homes (the stable hashing
     space); [nphys] adds the spare physical servers a shard plan will
     activate mid-run. They are equal except under a non-empty plan. *)
  let nservers = Config.nservers config in
  let nphys = Config.physical_servers config in
  let server_cores = Array.of_list (Config.server_cores config) in
  let place =
    match config.placement with
    | Config.Sharded { servers; vnodes } ->
        let events =
          match Place.parse_plan config.shard_plan with
          | Ok evs -> evs
          | Error msg -> invalid_arg ("Machine.boot: bad shard_plan: " ^ msg)
        in
        Some (Place.create ~nhomes:servers ~vnodes ~events)
    | Config.Timeshare | Config.Split _ -> None
  in
  (* The buffer cache is partitioned evenly among the file servers; each
     partition physically lives on its server's socket (NUMA). *)
  let per_server = max 16 (config.buffer_cache_blocks / nphys) in
  let dram = Hare_mem.Dram.create ~nblocks:(per_server * nphys) in
  Hare_mem.Dram.observe dram obs ~track:ncores;
  let server_sockets =
    Array.map (fun c -> Core_res.socket cores.(c)) server_cores
  in
  let block_socket b = server_sockets.(min (b / per_server) (nphys - 1)) in
  let pcaches =
    Array.init ncores (fun i ->
        Hare_mem.Pcache.create ~block_socket dram ~core:cores.(i) ~costs
          ~capacity_lines:config.pcache_lines)
  in
  let inval_ports =
    Array.init ncores (fun i ->
        Hare_msg.Mailbox.create
          ~name:(Printf.sprintf "inval%d" i)
          ~owner:cores.(i) ~costs ())
  in
  (* Fault injection: parse the plan once at boot; an empty plan means no
     injector at all, so the fault-free fast paths stay untouched. *)
  let injector =
    let plan =
      match Hare_fault.Plan.parse config.fault_plan with
      | Ok p -> p
      | Error msg -> invalid_arg ("Machine.boot: bad fault_plan: " ^ msg)
    in
    if Hare_fault.Plan.is_empty plan then None
    else begin
      List.iter
        (fun (ev : Hare_fault.Plan.server_event) ->
          if ev.ev_sid < 0 || ev.ev_sid >= nphys then
            invalid_arg
              (Printf.sprintf "Machine.boot: fault_plan targets fs%d but only %d server(s) exist"
                 ev.ev_sid nservers))
        plan.events;
      Some
        (Hare_fault.Injector.create ~engine
           ~seed:(Int64.add config.seed 0x7a57L)
           plan)
    end
  in
  let fault_link s =
    Option.map (fun inj -> Hare_fault.Injector.link inj ~sid:s) injector
  in
  let servers =
    Array.init nphys (fun s ->
        Server.create ~engine ~config ~sid:s
          ~core:cores.(server_cores.(s))
          ~pcache:pcaches.(server_cores.(s))
          ~dram ~blocks_first:(s * per_server) ~blocks_count:per_server
          ~inval_ports ?place ?faults:(fault_link s) ())
  in
  Server.install_root servers.(Types.root_ino.server);
  Array.iter Server.start servers;
  (* One daemon fiber per scripted fault event. They must be fibers, not
     bare timer callbacks: crash/restart send replies and invalidations,
     which charge compute (an effect). *)
  (match injector with
  | None -> ()
  | Some inj ->
      List.iter
        (fun (ev : Hare_fault.Plan.server_event) ->
          let srv = servers.(ev.ev_sid) in
          let body () =
            Engine.sleep ev.ev_at;
            match ev.ev_kind with
            | Hare_fault.Plan.Stall dur ->
                Hare_fault.Injector.stall_until
                  (Hare_fault.Injector.link inj ~sid:ev.ev_sid)
                  (Int64.add (Engine.now engine) dur)
            | Hare_fault.Plan.Crash restart_after -> (
                Server.crash srv;
                match restart_after with
                | None -> ()
                | Some dur ->
                    Engine.sleep dur;
                    Server.restart srv)
          in
          ignore
            (Engine.spawn engine ~daemon:true
               ~name:(Printf.sprintf "fault-fs%d" ev.ev_sid)
               body))
        (Hare_fault.Injector.server_events inj));
  let endpoints = Array.map Server.endpoint servers in
  Array.iter (fun s -> Server.set_peers s endpoints) servers;
  (* Designated local server per client (§3.6.4): prefer a same-socket
     server, spreading the clients of a socket across its servers. Only
     logical homes qualify — spares host nothing at boot. *)
  let local_server_of core_id =
    let sock = Core_res.socket cores.(core_id) in
    let same =
      List.filter
        (fun s -> server_sockets.(s) = sock)
        (List.init nservers Fun.id)
    in
    match same with
    | [] -> core_id mod nservers
    | l -> List.nth l (core_id mod List.length l)
  in
  let clients =
    Array.init ncores (fun i ->
        Client.create ~engine ~config ~cid:i ~core:cores.(i) ~pcache:pcaches.(i)
          ~servers:endpoints ~server_sockets ~local_server:(local_server_of i)
          ~inval_port:inval_ports.(i) ?place ())
  in
  let sched_ports =
    Array.init ncores (fun i -> Hare_msg.Rpc.endpoint ~owner:cores.(i) ~costs ())
  in
  let kctx =
    {
      Process.k_engine = engine;
      k_config = config;
      k_cores = cores;
      k_clients = clients;
      k_sched_ports = sched_ports;
      k_app_cores = Array.of_list (Config.app_cores config);
      k_pid_seq = Array.make ncores 1;
      k_proc_tables = Array.init ncores (fun _ -> Hashtbl.create 64);
    }
  in
  let registry = Program.create () in
  let scheds =
    Array.init ncores (fun i ->
        Hare_sched.Sched_server.create ~kctx ~registry ~core_id:i
          ~endpoint:sched_ports.(i) ())
  in
  Array.iter Hare_sched.Sched_server.start scheds;
  (* Rebalancing coordinator: one daemon fiber walks the membership plan
     in time order. For each home to move it flips the ring route FIRST
     (requests admitted after the old owner packs the shard bounce with
     [EMOVED] and chase the new route), then hands the shard off with a
     reliable Migrate_out / Install_shard pair — the fault injector never
     touches coordinator traffic, so a handed-off shard cannot be lost.
     A busy shard (parked pipe readers, held rmdir locks, in-flight
     steals) refuses to pack; the route is restored while it drains and
     the move retried, bounded, before being abandoned. *)
  (match place with
  | Some p when Place.migratory p ->
      let coord_core = cores.(List.hd (Config.app_cores config)) in
      let migrate ~home ~dst =
        let src = Place.phys p home in
        if src <> dst then begin
          let rec attempt tries =
            Place.set_route p ~home ~dst;
            match
              Hare_msg.Rpc.call
                (Server.endpoint servers.(src))
                ~from:coord_core
                (Wire.Migrate_out { home })
            with
            | Ok (Wire.P_pack pack) -> (
                match
                  Hare_msg.Rpc.call
                    (Server.endpoint servers.(dst))
                    ~from:coord_core
                    (Wire.Install_shard { home; pack })
                with
                | Ok _ -> Place.note_migration p
                | Error _ ->
                    (* The destination refused an install it must accept;
                       fail loudly rather than lose the shard. *)
                    failwith "Machine: shard install refused")
            | Ok _ ->
                (* A pack reply carries P_pack by construction. *)
                failwith "Machine: malformed Migrate_out reply"
            | Error _ when tries > 0 ->
                (* Busy (or mid-crash): point the route back at the still-
                   hosting source while the shard drains, then retry. *)
                Place.set_route p ~home ~dst:src;
                Engine.sleep_cycles 2_000;
                attempt (tries - 1)
            | Error _ ->
                Place.set_route p ~home ~dst:src;
                Place.note_abort p
          in
          attempt 50
        end
      in
      let ev_at = function Place.Add { at } | Place.Remove { at; _ } -> at in
      let events =
        List.stable_sort
          (fun a b -> Int64.compare (ev_at a) (ev_at b))
          (Place.events p)
      in
      let next_spare = ref (Place.nhomes p) in
      let body () =
        List.iter
          (fun ev ->
            let lag = Int64.sub (ev_at ev) (Engine.now engine) in
            if Int64.compare lag 0L > 0 then Engine.sleep lag;
            (match ev with
            | Place.Add _ ->
                let q = !next_spare in
                incr next_spare;
                Place.activate p q;
                List.iter (fun home -> migrate ~home ~dst:q) (Place.plan_add p q)
            | Place.Remove { sid; _ } ->
                Place.deactivate p sid;
                List.iter
                  (fun (home, dst) -> migrate ~home ~dst)
                  (Place.plan_remove p sid));
            Place.commit p)
          events
      in
      ignore (Engine.spawn engine ~daemon:true ~name:"rebalancer" body)
  | _ -> ());
  (* Time-series telemetry: register the machine's gauges and
     subscribe the sampler to the bus. Every gauge is a cost-free
     host-side accessor, and sampling runs between events without
     charging cycles, scheduling events or drawing RNG — metered and
     unmetered runs of the same seed are bit-identical (asserted in
     test_obs). *)
  let metrics =
    if config.metrics_interval = 0 then None
    else begin
      let m =
        Metrics.create ~interval:config.metrics_interval ()
      in
      Array.iteri
        (fun s srv ->
          Metrics.register m
            ~name:(Printf.sprintf "fs%d.qdepth" s)
            (fun () -> Server.queue_depth srv);
          if config.mailbox_capacity > 0 then
            Metrics.register m
              ~name:(Printf.sprintf "fs%d.credits" s)
              (fun () ->
                max 0 (config.mailbox_capacity - Server.queue_depth srv));
          Metrics.register m
            ~name:(Printf.sprintf "fs%d.ops" s)
            (fun () -> Hare_stats.Opcount.total (Server.ops srv));
          Metrics.register m
            ~name:(Printf.sprintf "fs%d.shed" s)
            (fun () ->
              let r = Server.robust srv in
              Robust.get r Robust.shed_load + Robust.get r Robust.shed_expired))
        servers;
      Metrics.register m ~name:"client.retries" (fun () ->
          Array.fold_left
            (fun n c -> n + Robust.get (Client.robust c) Robust.retries)
            0 clients);
      if config.breaker_threshold > 0 then
        Metrics.register m ~name:"breakers.open" (fun () ->
            Array.fold_left (fun n c -> n + Client.open_breakers c) 0 clients);
      Metrics.register m ~name:"pcache.hit_permille" (fun () ->
          let h = ref 0 and ms = ref 0 in
          Array.iter
            (fun pc ->
              let st = Hare_mem.Pcache.stats pc in
              h := !h + st.Hare_mem.Pcache.hits;
              ms := !ms + st.Hare_mem.Pcache.misses)
            pcaches;
          if !h + !ms = 0 then 0 else !h * 1000 / (!h + !ms));
      Metrics.register m ~name:"fibers.live" (fun () ->
          Engine.live_fibers engine);
      (match place with
      | Some p ->
          Metrics.register m ~name:"ring.epoch" (fun () -> Place.epoch p);
          Metrics.register m ~name:"ring.migrations" (fun () ->
              Place.migrations p)
      | None -> ());
      Metrics.register m ~name:"load.imbalance_permille" (fun () ->
          (* max/mean served-ops ratio, over servers that did any work,
             in integer permille (gauges are ints) *)
          let n = ref 0 and sum = ref 0 and mx = ref 0 in
          Array.iter
            (fun srv ->
              let ops = Hare_stats.Opcount.total (Server.ops srv) in
              if ops > 0 then begin
                incr n;
                sum := !sum + ops;
                if ops > !mx then mx := ops
              end)
            servers;
          if !sum = 0 then 1000 else !mx * 1000 * !n / !sum);
      (* Gauges become Perfetto counter tracks above the core and DRAM
         tracks. *)
      Option.iter
        (fun tr ->
          List.iteri
            (fun i (name, _) ->
              Hare_trace.Trace.declare_track tr ~track:(ncores + 1 + i)
                ~name:("metric:" ^ name))
            (Metrics.series m))
        trace;
      Metrics.attach m obs ~track_base:(ncores + 1);
      Some m
    end
  in
  { engine; config; cores; dram; servers; clients; scheds; registry; kctx;
    injector; place; trace; check; metrics }

let engine t = t.engine

let config t = t.config

let kctx t = t.kctx

let servers t = t.servers

let clients t = t.clients

let place t = t.place

let metrics t = t.metrics

let server_loads t =
  Array.to_list t.servers
  |> List.map (fun s ->
         ( Server.sid s,
           Hare_stats.Opcount.total (Server.ops s),
           Server.peak_queue s ))

let total_moved_retries t =
  Array.fold_left (fun acc c -> acc + Client.moved_retries c) 0 t.clients

let total_moved_rejects t =
  Array.fold_left (fun acc s -> acc + Server.moved_rejects s) 0 t.servers

let register_program t name body = Program.register t.registry name body

let spawn_init t ?core ?(cwd = "/") ?(args = []) ~name body =
  let core =
    match core with Some c -> c | None -> t.kctx.Process.k_app_cores.(0)
  in
  let console = Buffer.create 256 in
  let fdt = Fdtable.create () in
  let entry =
    {
      Fdtable.desc = Fdtable.Console (Wire.Console_local console);
      local_refs = 3;
    }
  in
  Fdtable.alloc_at fdt 0 entry;
  Fdtable.alloc_at fdt 1 entry;
  Fdtable.alloc_at fdt 2 entry;
  let proc =
    Process.make ~k:t.kctx ~core ~fdt ~cwd ~env:[ ("INIT", name) ] ~rr_next:0 ()
  in
  Process.run proc (fun p -> body p args);
  (proc, console)

let run t = Engine.run t.engine

let run_for t budget = Engine.run_for t.engine budget

let exit_status _t (proc : Process.t) = Ivar.peek proc.Process.exit_status

let now t = Engine.now t.engine

let seconds t = Costs.seconds_of_cycles t.config.Config.costs (now t)

let total_syscalls t =
  let acc = Hare_stats.Opcount.create () in
  Array.iter
    (fun c -> Hare_stats.Opcount.merge ~into:acc (Client.syscalls c))
    t.clients;
  acc

let total_server_ops t =
  let acc = Hare_stats.Opcount.create () in
  Array.iter
    (fun s -> Hare_stats.Opcount.merge ~into:acc (Server.ops s))
    t.servers;
  acc

let total_rpcs t =
  Array.fold_left (fun acc c -> acc + Client.rpc_count c) 0 t.clients

let total_invals t =
  Array.fold_left (fun acc s -> acc + Server.invals_sent s) 0 t.servers

(* Every component's counter records: the fault injector's, each
   server's and each client's. *)
let robust_records t =
  Option.to_list (Option.map Hare_fault.Injector.stats t.injector)
  @ List.map Server.robust (Array.to_list t.servers)
  @ List.map Client.robust (Array.to_list t.clients)

let perf_records t =
  List.map Server.perf (Array.to_list t.servers)
  @ List.map Client.perf (Array.to_list t.clients)

let robustness t =
  let acc = Robust.create () in
  List.iter (Robust.merge ~into:acc) (robust_records t);
  (* Credit-blocked sends are counted at the server endpoint (the mailbox
     cannot see a Robust record). *)
  Array.iter
    (fun s ->
      Robust.add acc Robust.flow_blocks
        (Hare_msg.Rpc.flow_blocked (Server.endpoint s)))
    t.servers;
  acc

let perf t =
  let acc = Perf.create () in
  List.iter (Perf.merge ~into:acc) (perf_records t);
  acc

let trace t = t.trace

let check t = t.check

let reset_perf t =
  List.iter Robust.reset (robust_records t);
  List.iter Perf.reset (perf_records t);
  Array.iter
    (fun s ->
      Hare_msg.Rpc.reset_flow (Server.endpoint s);
      Server.reset_peak_queue s)
    t.servers

let utilization t =
  let elapsed = Int64.to_float (max 1L (now t)) in
  Array.to_list t.cores
  |> List.map (fun core ->
         ( Core_res.id core,
           Int64.to_float (Core_res.busy_cycles core) /. elapsed ))
