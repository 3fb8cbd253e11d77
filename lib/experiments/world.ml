module Api = Hare_api.Api
module Config = Hare_config.Config
open Hare_proto

module type WORLD = sig
  type world

  type proc

  val name : string

  val boot : Hare_config.Config.t -> world

  val api : world -> proc Hare_api.Api.t

  val spawn_init : world -> name:string -> (proc -> int) -> proc

  val run : world -> unit

  val seconds : world -> float

  val syscalls : world -> Hare_stats.Opcount.t

  val exit_status : world -> proc -> int option

  val machine : world -> Hare.Machine.t option
  (** [None] for the Linux baseline. *)
end

module Hare_w = struct
  include Hare.Machine
  module Posix = Hare.Posix
  module P = Hare_proc.Process

  type world = t

  type proc = P.t

  let name = "hare"

  let api (m : world) : proc Api.t =
    {
      openf = (fun p path flags -> Posix.openf p path flags);
      close = Posix.close;
      read = (fun p fd ~len -> Posix.read p fd ~len);
      write = Posix.write;
      lseek = (fun p fd ~pos whence -> Posix.lseek p fd ~pos whence);
      dup2 = (fun p ~src ~dst -> Posix.dup2 p ~src ~dst);
      pipe = Posix.pipe;
      fsync = Posix.fsync;
      ftruncate = (fun p fd ~size -> Posix.ftruncate p fd ~size);
      unlink = Posix.unlink;
      mkdir = (fun p ~dist path -> Posix.mkdir p ~dist path);
      rmdir = Posix.rmdir;
      rename = Posix.rename;
      readdir =
        (fun p path ->
          Posix.readdir p path
          |> List.map (fun (e : Wire.entry) -> (e.Wire.e_name, e.Wire.e_ftype)));
      stat = Posix.stat;
      exists = Posix.exists;
      chdir = Posix.chdir;
      fork = Posix.fork;
      spawn = (fun p ~prog ~args -> Posix.spawn p ~prog ~args);
      waitpid = Posix.waitpid;
      wait = Posix.wait;
      kill = Posix.kill;
      register_program = (fun prog body -> register_program m prog body);
      compute = Posix.compute;
      random = (fun p bound -> Hare_sim.Rng.int p.P.prng bound);
      print = Posix.print;
      core_of = (fun p -> p.P.core_id);
      now_cycles = Posix.now_cycles;
      sleep_until = Posix.sleep_until;
    }

  let spawn_init m ~name body =
    fst (spawn_init m ~name (fun p _args -> body p))

  let syscalls = total_syscalls

  let machine = Option.some
end

module Linux_w = struct
  include Hare_baseline.Linux_world

  type world = t

  let name = "linux"

  let spawn_init w ~name body = fst (spawn_init w ~name body)

  let machine _ = None
end

let unfs_config (base : Config.t) =
  let costs = base.Config.costs in
  {
    base with
    Config.placement = Config.Split 1;
    dir_distribution = false;
    direct_access = false;
    dir_cache = true;
    (* Every message crosses the kernel loopback network stack plus the
       user-space NFS server's socket handling. *)
    costs = { costs with Hare_config.Costs.send = costs.Hare_config.Costs.send + costs.Hare_config.Costs.loopback_rpc };
  }
