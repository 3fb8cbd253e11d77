open Hare_sim
open Hare_proto
open Hare_proto.Types
module Pipe_state = Hare_server.Pipe_state
module Path = Hare_client.Path

type t = {
  engine : Engine.t;
  config : Hare_config.Config.t;
  costs : Hare_config.Costs.t;
  cores : Core_res.t array;
  fs : Lfs.t;
  registry : (string, proc -> string list -> int) Hashtbl.t;
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable rr : int;  (* kernel scheduler's balance cursor *)
}

and proc = {
  pid : pid;
  core_id : int;
  w : t;
  fdt : (int, entry) Hashtbl.t;
  mutable cwd : string;
  exit_status : int Ivar.t;
  mutable children : proc list;
  child_exits : (pid * int) Bqueue.t;
  mutable reaped : (pid * int) list;
  mutable killed : bool;
  prng : Rng.t;
}

(* Kernel "struct file": shared by fork/dup across processes — plain
   shared memory on this coherent baseline. *)
and entry = {
  mutable desc : desc;
  mutable refs : int;  (* fd bindings across all processes *)
}

and desc =
  | Lfile of lfile
  | Lpipe of { ps : Pipe_state.t; write_end : bool }
  | Lconsole of Buffer.t

and lfile = {
  node : Lfs.node;
  mutable pos : int;
  flags : open_flags;
}

let boot config =
  (match Hare_config.Config.validate config with
  | Ok () -> ()
  | Error m -> invalid_arg ("Linux_world.boot: " ^ m));
  let engine = Engine.create ~seed:config.Hare_config.Config.seed () in
  let costs = config.Hare_config.Config.costs in
  let cores =
    Array.init config.Hare_config.Config.ncores (fun i ->
        Core_res.create engine ~id:i
          ~socket:(Hare_config.Config.socket_of_core config i)
          ~ctx_switch:costs.ctx_switch)
  in
  {
    engine;
    config;
    costs;
    cores;
    fs = Lfs.create ~engine ~config ~cores;
    registry = Hashtbl.create 16;
    procs = Hashtbl.create 64;
    next_pid = 1;
    rr = 0;
  }

let run t = Engine.run t.engine

let seconds t =
  Hare_config.Costs.seconds_of_cycles t.costs (Engine.now t.engine)

let exit_status _t p = Ivar.peek p.exit_status

let syscalls t = Lfs.syscalls t.fs

let core (p : proc) = p.w.cores.(p.core_id)

(* ---------- processes --------------------------------------------------- *)

let mk_proc w ~core_id ~parent ~cwd ~fdt =
  let pid = Types.make_pid ~core:core_id ~seq:w.next_pid in
  w.next_pid <- w.next_pid + 1;
  let p =
    {
      pid;
      core_id;
      w;
      fdt;
      cwd;
      exit_status = Ivar.create ();
      children = [];
      child_exits = Bqueue.create ();
      reaped = [];
      killed = false;
      prng = Rng.split (Engine.rng w.engine);
    }
  in
  Hashtbl.replace w.procs pid p;
  (match parent with Some par -> par.children <- p :: par.children | None -> ());
  p

let release_entry (p : proc) (e : entry) =
  e.refs <- e.refs - 1;
  if e.refs <= 0 then
    match e.desc with
    | Lfile f -> Lfs.close_file p.w.fs ~core:p.core_id f.node
    | Lpipe { ps; write_end } ->
        if write_end then Pipe_state.close_writer ps
        else Pipe_state.close_reader ps
    | Lconsole _ -> ()

let close_all p =
  let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) p.fdt [] in
  List.iter
    (fun fd ->
      match Hashtbl.find_opt p.fdt fd with
      | Some e ->
          Hashtbl.remove p.fdt fd;
          release_entry p e
      | None -> ())
    fds

(* ---------- file descriptors -------------------------------------------- *)

let alloc_fd p e =
  let rec scan fd =
    if fd >= 1024 then Errno.raise_errno Errno.EMFILE "fd table full"
    else if Hashtbl.mem p.fdt fd then scan (fd + 1)
    else begin
      Hashtbl.replace p.fdt fd e;
      fd
    end
  in
  scan 0

let find_fd p fd =
  match Hashtbl.find_opt p.fdt fd with
  | Some e -> e
  | None -> Errno.raise_errno Errno.EBADF (string_of_int fd)

(* ---------- api --------------------------------------------------------- *)

let pipe_copy_cost (p : proc) data =
  Core_res.compute (core p)
    (p.w.costs.linux_syscall + ((String.length data / 64) * 8))

let api_read (p : proc) fd ~len =
  let e = find_fd p fd in
  match e.desc with
  | Lfile f ->
      let data = Lfs.read_file p.w.fs ~core:p.core_id f.node ~off:f.pos ~len in
      f.pos <- f.pos + String.length data;
      data
  | Lpipe { ps; write_end } ->
      if write_end then Errno.raise_errno Errno.EBADF "write end";
      let iv = Ivar.create () in
      Pipe_state.read ps ~len (Ivar.fill iv);
      (match Ivar.read iv with
      | Ok data ->
          pipe_copy_cost p data;
          data
      | Error e -> Errno.raise_errno e "pipe read")
  | Lconsole _ -> ""

let api_write (p : proc) fd data =
  let e = find_fd p fd in
  match e.desc with
  | Lfile f ->
      let off = if f.flags.append then Lfs.size f.node else f.pos in
      let n = Lfs.write_file p.w.fs ~core:p.core_id f.node ~off data in
      f.pos <- off + n;
      n
  | Lpipe { ps; write_end } ->
      if not write_end then Errno.raise_errno Errno.EBADF "read end";
      let iv = Ivar.create () in
      Pipe_state.write ps data (Ivar.fill iv);
      (match Ivar.read iv with
      | Ok n ->
          pipe_copy_cost p data;
          n
      | Error e -> Errno.raise_errno e "pipe write")
  | Lconsole buf ->
      Buffer.add_string buf data;
      String.length data

let api_fork (p : proc) child_body =
  Core_res.compute (core p) p.w.costs.spawn_process;
  (* The kernel scheduler places the child on any core. *)
  let target = p.w.rr mod Array.length p.w.cores in
  p.w.rr <- p.w.rr + 1;
  let fdt = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fd e ->
      e.refs <- e.refs + 1;
      Hashtbl.replace fdt fd e)
    p.fdt;
  let child = mk_proc p.w ~core_id:target ~parent:(Some p) ~cwd:p.cwd ~fdt in
  let parent = p in
  ignore
    (Engine.spawn p.w.engine
       ~name:(Printf.sprintf "lproc-%d@%d" child.pid child.core_id)
       (fun () ->
         let status = try child_body child with Errno.Error _ -> 1 in
         (try close_all child with Errno.Error _ -> ());
         Hashtbl.remove child.w.procs child.pid;
         Bqueue.push parent.child_exits (child.pid, status);
         Ivar.fill child.exit_status status));
  child.pid

let reap (p : proc) pid =
  p.children <- List.filter (fun c -> c.pid <> pid) p.children

let api_wait (p : proc) =
  match p.reaped with
  | (pid, st) :: rest ->
      p.reaped <- rest;
      reap p pid;
      (pid, st)
  | [] ->
      if p.children = [] then Errno.raise_errno Errno.ECHILD "wait";
      let pid, st = Bqueue.pop p.child_exits in
      reap p pid;
      (pid, st)

let api_waitpid (p : proc) pid =
  let rec scan acc = function
    | [] -> None
    | (rp, st) :: rest when rp = pid ->
        p.reaped <- List.rev_append acc rest;
        Some st
    | entry :: rest -> scan (entry :: acc) rest
  in
  match scan [] p.reaped with
  | Some st ->
      reap p pid;
      st
  | None ->
      if not (List.exists (fun c -> c.pid = pid) p.children) then
        Errno.raise_errno Errno.ECHILD (string_of_int pid);
      let rec await () =
        let rp, st = Bqueue.pop p.child_exits in
        if rp = pid then begin
          reap p pid;
          st
        end
        else begin
          p.reaped <- p.reaped @ [ (rp, st) ];
          await ()
        end
      in
      await ()

let api t : proc Hare_api.Api.t =
  let fsys = t.fs in
  {
    openf =
      (fun p path flags ->
        let node = Lfs.open_file fsys ~core:p.core_id ~cwd:p.cwd path flags in
        let pos = if flags.append then Lfs.size node else 0 in
        alloc_fd p { desc = Lfile { node; pos; flags }; refs = 1 });
    close =
      (fun p fd ->
        let e = find_fd p fd in
        Hashtbl.remove p.fdt fd;
        Core_res.compute (core p) 200;
        release_entry p e);
    read = api_read;
    write = api_write;
    lseek =
      (fun p fd ~pos whence ->
        let e = find_fd p fd in
        match e.desc with
        | Lfile f ->
            let target =
              match whence with
              | Seek_set -> pos
              | Seek_cur -> f.pos + pos
              | Seek_end -> Lfs.size f.node + pos
            in
            if target < 0 then Errno.raise_errno Errno.EINVAL "lseek";
            f.pos <- target;
            Core_res.compute (core p) t.costs.linux_syscall;
            target
        | Lpipe _ | Lconsole _ -> Errno.raise_errno Errno.ESPIPE "lseek");
    dup2 =
      (fun p ~src ~dst ->
        let e = find_fd p src in
        if src <> dst then begin
          (match Hashtbl.find_opt p.fdt dst with
          | Some old ->
              Hashtbl.remove p.fdt dst;
              release_entry p old
          | None -> ());
          e.refs <- e.refs + 1;
          Hashtbl.replace p.fdt dst e
        end;
        dst);
    pipe =
      (fun p ->
        Core_res.compute (core p) (t.costs.linux_syscall + 800);
        let ps = Pipe_state.create ~capacity:65536 in
        Pipe_state.add_reader ps;
        Pipe_state.add_writer ps;
        let rfd = alloc_fd p { desc = Lpipe { ps; write_end = false }; refs = 1 } in
        let wfd = alloc_fd p { desc = Lpipe { ps; write_end = true }; refs = 1 } in
        (rfd, wfd));
    fsync =
      (fun p fd ->
        match (find_fd p fd).desc with
        | Lfile f -> Lfs.fsync_file fsys ~core:p.core_id f.node
        | Lpipe _ | Lconsole _ -> ());
    ftruncate =
      (fun p fd ~size ->
        match (find_fd p fd).desc with
        | Lfile f -> Lfs.truncate fsys ~core:p.core_id f.node ~size
        | Lpipe _ | Lconsole _ -> Errno.raise_errno Errno.EINVAL "ftruncate");
    unlink = (fun p path -> Lfs.unlink fsys ~core:p.core_id ~cwd:p.cwd path);
    mkdir =
      (fun p ~dist:_ path -> Lfs.mkdir fsys ~core:p.core_id ~cwd:p.cwd path);
    rmdir = (fun p path -> Lfs.rmdir fsys ~core:p.core_id ~cwd:p.cwd path);
    rename =
      (fun p a b -> Lfs.rename fsys ~core:p.core_id ~cwd:p.cwd a b);
    readdir = (fun p path -> Lfs.readdir fsys ~core:p.core_id ~cwd:p.cwd path);
    stat = (fun p path -> Lfs.stat fsys ~core:p.core_id ~cwd:p.cwd path);
    exists =
      (fun p path ->
        match Lfs.stat fsys ~core:p.core_id ~cwd:p.cwd path with
        | (_ : attr) -> true
        | exception Errno.Error ((Errno.ENOENT | Errno.ENOTDIR), _) -> false);
    chdir =
      (fun p path ->
        let a = Lfs.stat fsys ~core:p.core_id ~cwd:p.cwd path in
        if a.a_ftype <> Dir then Errno.raise_errno Errno.ENOTDIR path;
        p.cwd <- Path.join p.cwd path);
    fork = api_fork;
    spawn =
      (fun p ~prog ~args ->
        api_fork p (fun child ->
            match Hashtbl.find_opt t.registry prog with
            | None -> 127
            | Some body ->
                Core_res.compute (core child) t.costs.spawn_process;
                body child args));
    waitpid = api_waitpid;
    wait = api_wait;
    kill =
      (fun p pid _signal ->
        Core_res.compute (core p) t.costs.linux_syscall;
        match Hashtbl.find_opt t.procs pid with
        | Some target -> target.killed <- true
        | None -> Errno.raise_errno Errno.ESRCH (string_of_int pid));
    register_program = (fun name body -> Hashtbl.replace t.registry name body);
    compute = (fun p cycles -> Core_res.compute (core p) cycles);
    random = (fun p bound -> Rng.int p.prng bound);
    print =
      (fun p s ->
        match Hashtbl.find_opt p.fdt 1 with
        | Some { desc = Lconsole buf; _ } -> Buffer.add_string buf s
        | _ -> ());
    core_of = (fun p -> p.core_id);
    now_cycles = (fun p -> Engine.now p.w.engine);
    sleep_until =
      (fun p target ->
        let dt = Int64.sub target (Engine.now p.w.engine) in
        if dt > 0L then Engine.sleep dt);
  }

let spawn_init t ~name body =
  let console = Buffer.create 256 in
  let fdt = Hashtbl.create 16 in
  let e = { desc = Lconsole console; refs = 3 } in
  Hashtbl.replace fdt 0 e;
  Hashtbl.replace fdt 1 e;
  Hashtbl.replace fdt 2 e;
  let p = mk_proc t ~core_id:0 ~parent:None ~cwd:"/" ~fdt in
  ignore
    (Engine.spawn t.engine ~name (fun () ->
         let status = try body p with Errno.Error _ -> 1 in
         (try close_all p with Errno.Error _ -> ());
         Hashtbl.remove t.procs p.pid;
         Ivar.fill p.exit_status status));
  (p, console)
