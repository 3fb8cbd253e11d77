open Hare_sim
open Hare_proto
module P = Hare_proc.Process
module Client = Hare_client.Client
module Fdtable = Hare_client.Fdtable
module Path = Hare_client.Path

let client = P.client

let costs (p : P.t) = p.P.k.P.k_config.Hare_config.Config.costs

(* ---------- files ------------------------------------------------------- *)

let openf p path flags = Client.openf (client p) p.P.fdt ~cwd:p.P.cwd path flags

let creat p path = openf p path Types.flags_w

let close p fd = Client.close (client p) p.P.fdt fd

let read p fd ~len = Client.read (client p) p.P.fdt fd ~len

let write p fd data = Client.write (client p) p.P.fdt fd data

let write_all p fd data =
  let len = String.length data in
  let rec go off =
    if off < len then begin
      let n = write p fd (String.sub data off (len - off)) in
      if n <= 0 then Errno.raise_errno Errno.EPIPE "write_all"
      else go (off + n)
    end
  in
  go 0

let read_all p fd =
  let buf = Buffer.create 4096 in
  let rec go () =
    let chunk = read p fd ~len:65536 in
    if chunk <> "" then begin
      Buffer.add_string buf chunk;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let lseek p fd ~pos whence = Client.lseek (client p) p.P.fdt fd ~pos whence

let dup p fd = Client.dup (client p) p.P.fdt fd

let dup2 p ~src ~dst = Client.dup2 (client p) p.P.fdt ~src ~dst

let pipe p = Client.pipe (client p) p.P.fdt

let fsync p fd = Client.fsync (client p) p.P.fdt fd

let ftruncate p fd ~size = Client.ftruncate (client p) p.P.fdt fd ~size

let fstat p fd = Client.fstat (client p) p.P.fdt fd

(* ---------- name space -------------------------------------------------- *)

let unlink p path = Client.unlink (client p) ~cwd:p.P.cwd path

let mkdir p ?dist path = Client.mkdir (client p) ~cwd:p.P.cwd ?dist path

let rmdir p path = Client.rmdir (client p) ~cwd:p.P.cwd path

let rename p a b = Client.rename (client p) ~cwd:p.P.cwd a b

let readdir p path = Client.readdir (client p) ~cwd:p.P.cwd path

let stat p path = Client.stat (client p) ~cwd:p.P.cwd path

let exists p path =
  match stat p path with
  | (_ : Types.attr) -> true
  | exception Errno.Error ((Errno.ENOENT | Errno.ENOTDIR), _) -> false

let chdir p path =
  let a = stat p path in
  if a.Types.a_ftype <> Types.Dir then Errno.raise_errno Errno.ENOTDIR path;
  p.P.cwd <- Path.join p.P.cwd path

let getcwd (p : P.t) = p.P.cwd

(* ---------- processes --------------------------------------------------- *)

let exit (_ : P.t) status = raise (P.Exited status)

let getenv (p : P.t) name = List.assoc_opt name p.P.env

let setenv (p : P.t) name value =
  p.P.env <- (name, value) :: List.remove_assoc name p.P.env

let compute (p : P.t) cycles = Core_res.compute (P.core p) cycles

let now_cycles (p : P.t) = Engine.now (Core_res.engine (P.core p))

(* Open-loop pacing: idle (blocked, not computing) until [target]. *)
let sleep_until (p : P.t) target =
  let dt = Int64.sub target (now_cycles p) in
  if dt > 0L then Engine.sleep dt

let print p s = ignore (write p 1 s)

let fork (p : P.t) child_body =
  (* Local only (§5.2): the child shares the core — and, after the
     synchronous share RPCs below, the file descriptors (§3.4). *)
  Core_res.compute (P.core p) (costs p).spawn_process;
  let fdt = Client.fork_fds (client p) p.P.fdt in
  let child =
    P.make ~k:p.P.k ~core:p.P.core_id ~parent:p ~fdt ~cwd:p.P.cwd ~env:p.P.env
      ~rr_next:p.P.rr_next ()
  in
  (* Round-robin state propagates from parent to child (§3.5): the child
     inherits the cursor and the parent advances, so consecutive
     fork+exec children land on consecutive cores. *)
  p.P.rr_next <- p.P.rr_next + 1;
  P.run child child_body;
  child.P.pid

(* Turn console descriptors into proxy-routed references so the remote
   process's output flows back through us (§3.5), and remember the local
   sink we should append relayed output to. *)
let rewrite_consoles proxy_port fds =
  let sink = ref None in
  let fds =
    List.map
      (fun (fd, x) ->
        match x with
        | Wire.Xconsole (Wire.Console_local buf) ->
            if !sink = None then sink := Some buf;
            (fd, Wire.Xconsole (Wire.Console_remote proxy_port))
        | Wire.Xconsole (Wire.Console_remote _) | Wire.Xfile _ | Wire.Xpipe _ ->
            (fd, x))
      fds
  in
  (fds, !sink)

let drop_fds_without_closing (p : P.t) =
  List.iter (fun fd -> Fdtable.remove p.P.fdt fd) (Fdtable.fds p.P.fdt)

let exec (p : P.t) ~prog ~args =
  let k = p.P.k in
  let target = Hare_sched.Policy.pick_core p in
  let proxy_port =
    Hare_msg.Mailbox.create ~owner:(P.core p) ~costs:(costs p) ()
  in
  let fds, console_sink =
    rewrite_consoles proxy_port (Client.export_fds p.P.fdt)
  in
  let req =
    Wire.S_exec
      {
        prog;
        args;
        env = p.P.env;
        cwd_path = p.P.cwd;
        fds;
        proxy = proxy_port;
        rr_next = p.P.rr_next;
      }
  in
  match Hare_msg.Rpc.call k.P.k_sched_ports.(target) ~from:(P.core p) req with
  | Error e -> Errno.raise_errno e prog
  | Ok child_pid ->
      (* We are now the proxy: our descriptors belong to the child. *)
      drop_fds_without_closing p;
      p.P.proxy_port <- Some proxy_port;
      (* A signal that arrived while we were still mid-exec (before the
         proxy port existed) set our killed flag instead of being
         relayed; forward it now so it is not lost. *)
      if p.P.killed then
        ignore
          (Hare_msg.Rpc.call
             k.P.k_sched_ports.(Types.core_of_pid child_pid)
             ~from:(P.core p)
             (Wire.S_signal { pid = child_pid; signal = Hare_proc.Process.sigterm }));
      let rec proxy_loop () =
        match Hare_msg.Mailbox.recv proxy_port with
        | Wire.Pm_child_exit status ->
            p.P.proxy_port <- None;
            status
        | Wire.Pm_console_write { data; ack } ->
            (match console_sink with
            | Some buf -> Buffer.add_string buf data
            | None -> ());
            Ivar.fill ack ();
            proxy_loop ()
        | Wire.Pm_signal signal ->
            (* Relay the signal to the child's core (§3.5). *)
            ignore
              (Hare_msg.Rpc.call
                 k.P.k_sched_ports.(Types.core_of_pid child_pid)
                 ~from:(P.core p)
                 (Wire.S_signal { pid = child_pid; signal }));
            proxy_loop ()
      in
      proxy_loop ()

let spawn p ~prog ~args = fork p (fun child -> exec child ~prog ~args)

let wait (p : P.t) = Hare_proc.Children.wait p.P.children

let waitpid (p : P.t) pid = Hare_proc.Children.waitpid p.P.children pid

let kill (p : P.t) pid signal =
  let core = Types.core_of_pid pid in
  if core < 0 || core >= Array.length p.P.k.P.k_sched_ports then
    Errno.raise_errno Errno.ESRCH (string_of_int pid);
  match
    Hare_msg.Rpc.call p.P.k.P.k_sched_ports.(core) ~from:(P.core p)
      (Wire.S_signal { pid; signal })
  with
  | Ok _ -> ()
  | Error e -> Errno.raise_errno e (string_of_int pid)
