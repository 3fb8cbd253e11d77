(* Quickstart: boot a 4-core Hare machine, share a file between cores,
   and watch close-to-open consistency do its job.

   Run with:  dune exec examples/quickstart.exe *)

module Config = Hare_config.Config
module Machine = Hare.Machine
module Posix = Hare.Posix
open Hare_proto.Types

let () =
  (* A small non-cache-coherent machine: 4 cores, a file server per core
     (timeshare placement, like the paper's standard configuration). *)
  let config = { Config.default with ncores = 4; buffer_cache_blocks = 4096 } in
  let machine = Machine.boot config in

  (* Programs are OCaml functions; exec names them. This one runs on
     whatever core the round-robin policy picks. *)
  Machine.register_program machine "greet-reader" (fun proc args ->
      let who = match args with w :: _ -> w | [] -> "world" in
      let fd = Posix.openf proc "/greeting.txt" flags_r in
      let text = Posix.read_all proc fd in
      Posix.close proc fd;
      Posix.print proc (Printf.sprintf "[core %d] %s says: %s\n" proc.Hare_proc.Process.core_id who text);
      0);

  let init, console =
    Machine.spawn_init machine ~name:"quickstart" (fun proc _args ->
        (* Write a file on this core... *)
        let fd = Posix.creat proc "/greeting.txt" in
        ignore (Posix.write proc fd "hello from a non-cache-coherent multicore!");
        Posix.close proc fd;

        (* ...make a distributed directory and fill it concurrently... *)
        Posix.mkdir proc ~dist:true "/shared";
        let children =
          List.init 3 (fun i ->
              Posix.fork proc (fun child ->
                  let path = Printf.sprintf "/shared/file-%d" i in
                  let fd = Posix.creat child path in
                  ignore (Posix.write child fd (String.make 100 'x'));
                  Posix.close child fd;
                  0))
        in
        List.iter (fun pid -> ignore (Posix.waitpid proc pid)) children;
        let entries = Posix.readdir proc "/shared" in
        Posix.print proc
          (Printf.sprintf "/shared has %d entries\n" (List.length entries));

        (* ...and read the file from another core via remote exec. *)
        let pid = Posix.spawn proc ~prog:"greet-reader" ~args:[ "reader" ] in
        Posix.waitpid proc pid)
  in
  Machine.run machine;
  print_string (Buffer.contents console);
  Printf.printf "init exited with %s after %.3f simulated ms\n"
    (match Machine.exit_status machine init with
    | Some st -> string_of_int st
    | None -> "?")
    (Machine.seconds machine *. 1000.0)
