open Hare_sim
open Hare_proto
open Hare_proc

type t = {
  kctx : Process.kctx;
  registry : Program.t;
  core_id : int;
  core : Core_res.t;
  costs : Hare_config.Costs.t;
  endpoint : (Wire.sched_req, Wire.sched_resp) Hare_msg.Rpc.t;
}

let create ~kctx ~registry ~core_id ~endpoint () =
  {
    kctx;
    registry;
    core_id;
    core = kctx.Process.k_cores.(core_id);
    costs = kctx.Process.k_config.Hare_config.Config.costs;
    endpoint;
  }

let handle_exec t ~prog ~args ~env ~cwd_path ~fds ~proxy ~rr_next reply =
  match Program.find t.registry prog with
  | None -> reply (Error Errno.ENOEXEC)
  | Some body ->
      (* fork + exec of the image on this core. *)
      Core_res.compute t.core t.costs.spawn_process;
      let client = t.kctx.Process.k_clients.(t.core_id) in
      let fdt = Hare_client.Client.import_fds client fds in
      let proc =
        Process.make ~k:t.kctx ~core:t.core_id ~fdt ~cwd:cwd_path ~env ~rr_next
          ()
      in
      reply (Ok proc.Process.pid);
      Process.run proc
        ~on_exit:(fun status ->
          (* Tell the proxy so the original parent sees the status. *)
          Hare_msg.Mailbox.send proxy ~from:t.core (Wire.Pm_child_exit status))
        (fun p -> body p args)

let handle_signal t ~pid ~signal reply =
  match Process.find t.kctx pid with
  | None -> reply (Error Errno.ESRCH)
  | Some target ->
      Process.deliver_signal target ~from:t.core signal;
      reply (Ok pid)

let start t =
  let engine = t.kctx.Process.k_engine in
  let o = Engine.obs engine in
  let rec loop () =
    let { Hare_msg.Rpc.body = req; reply; span; _ } =
      Hare_msg.Rpc.recv_full t.endpoint
    in
    let fid = Engine.current_fid engine in
    if Obs.on o Obs.spans then begin
      let op =
        match req with Wire.S_exec _ -> "sched:exec" | Wire.S_signal _ -> "sched:signal"
      and pending = [ (Obs.Dispatch, t.costs.server_dispatch) ] in
      let track = t.core_id and args = Obs.no_args and ts = Obs.now o in
      Obs.emit o (Span_open { fid; op; track; parent = span; ts; args; pending })
    end;
    Core_res.compute t.core t.costs.server_dispatch;
    (match req with
    | Wire.S_exec { prog; args; env; cwd_path; fds; proxy; rr_next } ->
        handle_exec t ~prog ~args ~env ~cwd_path ~fds ~proxy ~rr_next reply
    | Wire.S_signal { pid; signal } -> handle_signal t ~pid ~signal reply);
    if Obs.on o Obs.spans then
      Obs.emit o (Span_close { fid; ts = Obs.now o; server = true });
    loop ()
  in
  ignore
    (Engine.spawn t.kctx.Process.k_engine ~daemon:true
       ~name:(Printf.sprintf "sched-%d" t.core_id)
       loop)
