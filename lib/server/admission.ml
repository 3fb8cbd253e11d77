open Hare_sim
module Wire = Hare_proto.Wire
module Errno = Hare_proto.Errno
module Rpc = Hare_msg.Rpc
module Robust = Hare_stats.Robust

type t = {
  engine : Engine.t;
  watermark : int;
  dispatch_cost : int;
  core : Core_res.t;
  endpoint : (Wire.fs_req, Wire.fs_resp) Rpc.t;
  robust : Robust.t;
  dedup : Home.reply Dedup.t;
  homes : Home.homes;
  mutable moved_rejects : int;
}

let create ~engine ~(config : Hare_config.Config.t) ~core ~endpoint ~robust ~dedup
    ~homes =
  {
    engine;
    watermark = config.shed_watermark;
    dispatch_cost = config.costs.server_dispatch;
    core;
    endpoint;
    robust;
    dedup;
    homes;
    moved_rejects = 0;
  }

let moved_rejects t = t.moved_rejects

(* The addressed home moved away. Bounce with EMOVED *before* any
   execution or dedup recording: the reject must never be cached as this
   request's outcome (the cached entry would migrate with the shard and
   shadow the real execution), and the retry — same idempotency tag, new
   owner — must be free to execute. *)
let resolve t ~dispatch (r : _ Rpc.request) =
  if r.home < 0 then Home.unaddressed
  else
    match Home.lookup t.homes r.home with
    | Some _ as h -> h
    | None ->
        t.moved_rejects <- t.moved_rejects + 1;
        Core_res.compute t.core (if dispatch then t.dispatch_cost else 0);
        r.reply (Error Errno.EMOVED);
        None

let placed t r = resolve t ~dispatch:true r

let sheds t (r : _ Rpc.request) m =
  t.watermark > 0
  && (let depth = Rpc.pending t.endpoint in
      match (Wire.info r.body).shed with
      | Metadata -> false
      | Data -> depth > 2 * t.watermark
      | Background -> depth > t.watermark)
  && not (Dedup.seen t.dedup r.sender m)

let refuse t key name req =
  Robust.incr t.robust key;
  let o = Engine.obs t.engine in
  if o.Obs.wanted land Obs.marks <> 0 then begin
    let args = [ ("op", (Wire.info req).name) ] in
    Obs.emit o (Instant { name; track = Core_res.id t.core; ts = Obs.now o; args })
  end;
  Core_res.compute t.core t.dispatch_cost

let admit t ~dispatch (r : _ Rpc.request) =
  match r.meta with
  | Some m when sheds t r m ->
      refuse t Robust.shed_load "shed-load" r.body;
      Dedup.shed t.dedup r.sender m;
      r.reply (Error Errno.EBUSY);
      None
  | Some _ when r.deadline > 0L && Engine.now t.engine > r.deadline ->
      refuse t Robust.shed_expired "shed-expired" r.body;
      None
  | _ -> resolve t ~dispatch r
