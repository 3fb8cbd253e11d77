(* Layer micro-benchmarks: Bechamel runs each public entry point directly
   and reports host nanoseconds and minor-heap words per call. Calls that
   must run inside a fiber are timed [batch] at a time in one fiber on a
   long-lived engine, so the per-run fiber spawn is amortized away. *)

module Engine = Hare_sim.Engine
module Core_res = Hare_sim.Core_res
module Costs = Hare_config.Costs

let batch = 256

let costs = Costs.default

(* Run [f] [batch] times in one fresh fiber on [e]. *)
let in_fiber e f () =
  ignore
    (Engine.spawn e ~name:"micro" (fun () ->
         for i = 1 to batch do
           f i
         done));
  Engine.run e

let tests () =
  let heap_push_pop =
    let h = Hare_sim.Heap.create () in
    for i = 0 to 1023 do
      Hare_sim.Heap.push h ~time:(i * 7 mod 1024) ~seq:i ()
    done;
    let seq = ref 1024 in
    fun () ->
      for _ = 1 to batch do
        let t, _, () = Hare_sim.Heap.pop_min h in
        incr seq;
        Hare_sim.Heap.push h ~time:(t + 1024) ~seq:!seq ()
      done
  in
  let engine_sleep =
    let e = Engine.create () in
    in_fiber e (fun _ -> Engine.sleep_cycles 1)
  in
  let mailbox_send_recv =
    let e = Engine.create () in
    let c0 = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:costs.Costs.ctx_switch in
    let c1 = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:costs.Costs.ctx_switch in
    let mb = Hare_msg.Mailbox.create ~owner:c1 ~costs () in
    fun () ->
      ignore
        (Engine.spawn e ~name:"recv" (fun () ->
             for _ = 1 to batch do
               ignore (Hare_msg.Mailbox.recv mb : int)
             done));
      in_fiber e (fun i -> Hare_msg.Mailbox.send mb ~from:c0 i) ()
  in
  let rpc_call =
    let e = Engine.create () in
    let c0 = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:costs.Costs.ctx_switch in
    let c1 = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:costs.Costs.ctx_switch in
    let ep = Hare_msg.Rpc.endpoint ~owner:c1 ~costs () in
    ignore
      (Engine.spawn e ~daemon:true ~name:"server" (fun () ->
           while true do
             let req, reply = Hare_msg.Rpc.recv ep in
             reply (req + 1)
           done));
    in_fiber e (fun i -> ignore (Hare_msg.Rpc.call ep ~from:c0 i : int))
  in
  let pcache ~lines =
    let e = Engine.create () in
    let core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:costs.Costs.ctx_switch in
    let dram = Hare_mem.Dram.create ~nblocks:64 in
    (e, Hare_mem.Pcache.create dram ~core ~costs ~capacity_lines:lines)
  in
  let pcache_hit =
    let e, pc = pcache ~lines:64 in
    let dst = Bytes.create 64 in
    in_fiber e (fun _ -> Hare_mem.Pcache.read pc ~block:0 ~off:0 ~len:64 ~dst ~dst_off:0)
  in
  (* Eight lines of capacity cycled over 64 blocks x 64 lines: every
     write misses and evicts a dirty line, which is written back. *)
  let pcache_miss_writeback =
    let e, pc = pcache ~lines:8 in
    let src = Bytes.make 64 'x' in
    let n = ref 0 in
    in_fiber e (fun _ ->
        incr n;
        Hare_mem.Pcache.write pc ~block:(!n land 63) ~off:((!n lsr 6) land 63 * 64) ~len:64
          ~src ~src_off:0)
  in
  let dram_line =
    let dram = Hare_mem.Dram.create ~nblocks:64 in
    let dst = Bytes.create 64 in
    fun () ->
      for i = 1 to batch do
        Hare_mem.Dram.read_line dram ~block:(i land 63) ~line:((i lsr 6) land 63) ~dst ~dst_off:0
      done
  in
  let dircache_find =
    let e = Engine.create () in
    let core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:costs.Costs.ctx_switch in
    let port = Hare_msg.Mailbox.create ~owner:core ~costs () in
    let dc = Hare_client.Dircache.create ~enabled:true ~port () in
    let dir = Hare_proto.Types.root_ino in
    let info = { Hare_proto.Wire.t_ino = dir; t_ftype = Hare_proto.Types.Reg; t_dist = false } in
    Hare_client.Dircache.add dc ~dir ~name:"f" info;
    fun () ->
      for _ = 1 to batch do
        ignore (Hare_client.Dircache.find dc ~dir ~name:"f")
      done
  in
  [
    ("heap_push_pop", heap_push_pop);
    ("engine_sleep", engine_sleep);
    ("mailbox_send_recv", mailbox_send_recv);
    ("rpc_call", rpc_call);
    ("pcache_hit", pcache_hit);
    ("pcache_miss_writeback", pcache_miss_writeback);
    ("dram_line", dram_line);
    ("dircache_find", dircache_find);
  ]

(* [(name, ns per call, minor words per call)] for every test. *)
let run () =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock
  and words = Toolkit.Instance.minor_allocated in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.map
    (fun (name, f) ->
      let test = Test.make ~name (Staged.stage f) in
      let tbl = Benchmark.all cfg [ clock; words ] test in
      let per_call inst =
        let res = Analyze.all ols inst tbl in
        match Analyze.OLS.estimates (Hashtbl.find res name) with
        | Some (e :: _) -> e /. float_of_int batch
        | _ -> nan
      in
      (name, per_call clock, per_call words))
    (tests ())
