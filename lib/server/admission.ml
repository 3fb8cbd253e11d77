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
  migratory : bool;
  homes : Home.t Tbl.Int.t;
  mutable moved_rejects : int;
}

let create ~engine ~(config : Hare_config.Config.t) ~core ~endpoint ~robust ~dedup
    ~migratory ~homes =
  {
    engine;
    watermark = config.shed_watermark;
    dispatch_cost = config.costs.server_dispatch;
    core;
    endpoint;
    robust;
    dedup;
    migratory;
    homes;
    moved_rejects = 0;
  }

let moved_rejects t = t.moved_rejects

(* Which logical home a request under a shard plan addresses; -1 for
   requests with no home affinity (block stealing, the migration protocol
   itself). Entry operations carry it explicitly; inode and token
   operations encode it in the target id. *)
let req_home (req : Wire.fs_req) =
  match req with
  | Wire.Lookup { home; _ }
  | Wire.Add_map { home; _ }
  | Wire.Rm_map { home; _ }
  | Wire.Readdir_shard { home; _ }
  | Wire.Create_open { home; _ }
  | Wire.Create_inode { home; _ }
  | Wire.Create_dir { home; _ }
  | Wire.Rmdir_prepare { home; _ }
  | Wire.Rmdir_commit { home; _ }
  | Wire.Rmdir_abort { home; _ }
  | Wire.Pipe_create { home; _ } ->
      home
  | Wire.Open_inode { ino; _ }
  | Wire.Alloc_blocks { ino; _ }
  | Wire.Get_blocks { ino }
  | Wire.Get_attr { ino }
  | Wire.Truncate { ino; _ }
  | Wire.Unlink_ino { ino } ->
      ino.server
  | Wire.Rmdir_lock { dir } | Wire.Rmdir_unlock { dir } | Wire.Rmdir_local { dir; _ } ->
      dir.server
  | Wire.Close_fd { token; _ }
  | Wire.Read_fd { token; _ }
  | Wire.Write_fd { token; _ }
  | Wire.Lseek_fd { token; _ }
  | Wire.Update_size { token; _ }
  | Wire.Inc_fd_ref { token; _ }
  | Wire.Pipe_read { token; _ }
  | Wire.Pipe_write { token; _ } ->
      Home.token_home token
  | Wire.Steal_blocks _ | Wire.Migrate_out _ | Wire.Install_shard _ -> -1

(* The addressed home moved away. Bounce with EMOVED *before* any
   execution or dedup recording: the reject must never be cached as this
   request's outcome (the cached entry would migrate with the shard and
   shadow the real execution), and the retry — same idempotency tag, new
   owner — must be free to execute. *)
let moved t ~dispatch (r : _ Rpc.request) =
  let h = if t.migratory then req_home r.body else -1 in
  if h < 0 || Tbl.Int.mem t.homes h then false
  else begin
    t.moved_rejects <- t.moved_rejects + 1;
    Core_res.compute t.core (if dispatch then t.dispatch_cost else 0);
    r.reply (Error Errno.EMOVED);
    true
  end

let placed t r = not (moved t ~dispatch:true r)

let sheds t m req =
  t.watermark > 0
  && (let depth = Rpc.pending t.endpoint in
      match (Wire.info req).shed with
      | Metadata -> false
      | Data -> depth > 2 * t.watermark
      | Background -> depth > t.watermark)
  && not (Dedup.seen t.dedup m)

let refuse t key name req =
  Robust.incr t.robust key;
  let o = Engine.obs t.engine in
  if Obs.on o Obs.marks then begin
    let args = [ ("op", (Wire.info req).name) ] in
    Obs.emit o (Instant { name; track = Core_res.id t.core; ts = Obs.now o; args })
  end;
  Core_res.compute t.core t.dispatch_cost

let admit t ~dispatch (r : _ Rpc.request) =
  match r.meta with
  | Some m when sheds t m r.body ->
      refuse t Robust.shed_load "shed-load" r.body;
      Dedup.shed t.dedup m;
      r.reply (Error Errno.EBUSY);
      false
  | Some _ when r.deadline > 0L && Engine.now t.engine > r.deadline ->
      refuse t Robust.shed_expired "shed-expired" r.body;
      false
  | _ -> not (moved t ~dispatch r)
