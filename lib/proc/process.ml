open Hare_sim
open Hare_proto

type kctx = {
  k_engine : Engine.t;
  k_config : Hare_config.Config.t;
  k_cores : Core_res.t array;
  k_clients : Hare_client.Client.t array;
  k_sched_ports : (Wire.sched_req, Wire.sched_resp) Hare_msg.Rpc.t array;
  k_app_cores : int array;
  k_pid_seq : int array;
  k_proc_tables : t Tbl.Int.t array;
}

and t = {
  pid : Types.pid;
  core_id : int;
  k : kctx;
  fdt : Hare_client.Fdtable.t;
  mutable cwd : string;
  mutable env : (string * string) list;
  exit_status : int Ivar.t;
  mutable parent : t option;
  children : Children.t;
  mutable handlers : (int * (int -> unit)) list;
  mutable killed : bool;
  mutable proxy_port : Wire.proxy_msg Hare_msg.Mailbox.t option;
  mutable rr_next : int;
  prng : Rng.t;
}

exception Exited of int

let sigkill = 9

let sigterm = 15

let sigint = 2

let alloc_pid k ~core =
  let seq = k.k_pid_seq.(core) in
  k.k_pid_seq.(core) <- seq + 1;
  Types.make_pid ~core ~seq

let make ~k ~core ?pid ?parent ~fdt ~cwd ~env ~rr_next () =
  let pid = match pid with Some p -> p | None -> alloc_pid k ~core in
  let t =
    {
      pid;
      core_id = core;
      k;
      fdt;
      cwd;
      env;
      exit_status = Ivar.create ();
      parent;
      children = Children.create ();
      handlers = [];
      killed = false;
      proxy_port = None;
      rr_next;
      prng = Rng.split (Engine.rng k.k_engine);
    }
  in
  Tbl.Int.replace k.k_proc_tables.(core) pid t;
  Option.iter (fun p -> Children.add p.children pid) parent;
  t

let client t = t.k.k_clients.(t.core_id)

let core t = t.k.k_cores.(t.core_id)

let find k pid = Tbl.Int.find_opt k.k_proc_tables.(Types.core_of_pid pid) pid

let run t ?(on_exit = fun _ -> ()) body =
  let name = Printf.sprintf "proc-%d@%d" t.pid t.core_id in
  ignore
    (Engine.spawn t.k.k_engine ~name (fun () ->
         let status =
           try body t with
           | Exited n -> n
           | Errno.Error (e, what) ->
               let o = Engine.obs t.k.k_engine in
               if o.Obs.wanted land Obs.marks <> 0 then
                 Obs.emit o
                   (Instant
                      {
                        name = "proc-errno";
                        track = t.core_id;
                        ts = Obs.now o;
                        args =
                          [
                            ("pid", string_of_int t.pid);
                            ("errno", Errno.to_string e);
                            ("what", what);
                          ];
                      });
               1
         in
         (try Hare_client.Client.close_all (client t) t.fdt
          with Errno.Error _ -> ());
         (* Sanitizer exit lint: after teardown nothing but console
            descriptors may remain open and no allocation lease may
            still be held — either is a resource leak the servers would
            carry forever. *)
         (let o = Engine.obs t.k.k_engine in
          if o.Obs.wanted land Obs.lint <> 0 then begin
            let fds = ref 0 and leases = ref 0 in
            List.iter
              (fun (e : Hare_client.Fdtable.entry) ->
                match e.Hare_client.Fdtable.desc with
                | Hare_client.Fdtable.Console _ -> ()
                | Hare_client.Fdtable.File { f_blocks; f_size; _ } ->
                    incr fds;
                    leases := !leases + Hare_client.Fdtable.lease f_blocks f_size
                | Hare_client.Fdtable.Pipe _ -> incr fds)
              (Hare_client.Fdtable.distinct_entries t.fdt);
            Obs.emit o
              (Lint_exit { core = t.core_id; fds = !fds; leases = !leases })
          end);
         Tbl.Int.remove t.k.k_proc_tables.(t.core_id) t.pid;
         (match t.parent with
         | Some parent -> Children.exited parent.children t.pid status
         | None -> ());
         Ivar.fill t.exit_status status;
         on_exit status))

let install_handler t ~signal f =
  t.handlers <- (signal, f) :: List.remove_assoc signal t.handlers

let deliver_signal t ~from signal =
  match t.proxy_port with
  | Some port ->
      (* The process proxies for a remotely exec'd child: relay (§3.5). *)
      Hare_msg.Mailbox.send port ~from (Wire.Pm_signal signal)
  | None -> (
      match List.assoc_opt signal t.handlers with
      | Some handler -> handler signal
      | None ->
          if signal = sigkill || signal = sigterm || signal = sigint then
            t.killed <- true)
