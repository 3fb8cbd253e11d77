(* Mail server: the sv6 mailbench idiom on Hare. Deliverers on several
   cores write messages into a shared, distributed spool (tmp-file +
   rename for atomicity); a picker on another core reads and removes
   them. Both directions exercise sharded directories, cross-directory
   rename, and close-to-open visibility of message bodies across cores.

   Run with:  dune exec examples/mail_server.exe *)

module Config = Hare_config.Config
module Machine = Hare.Machine
module Posix = Hare.Posix
open Hare_proto.Types

let deliverers = 3

let per_deliverer = 8

let () =
  let config = { Config.default with ncores = 4; buffer_cache_blocks = 4096 } in
  let machine = Machine.boot config in

  Machine.register_program machine "deliverer" (fun proc args ->
      let id = int_of_string (List.hd args) in
      for i = 1 to per_deliverer do
        let base = Printf.sprintf "msg-%d-%03d" id i in
        let tmp = "/spool/tmp/" ^ base in
        let fd = Posix.creat proc tmp in
        ignore
          (Posix.write proc fd
             (Printf.sprintf "From: core%d\nSubject: mail %d\n\nbody body body\n"
                proc.Hare_proc.Process.core_id i));
        Posix.fsync proc fd;
        Posix.close proc fd;
        (* atomic delivery: rename into new/ *)
        Posix.rename proc tmp ("/spool/new/" ^ base)
      done;
      0);

  Machine.register_program machine "picker" (fun proc _args ->
      let expected = deliverers * per_deliverer in
      let picked = ref 0 in
      while !picked < expected do
        let entries = Posix.readdir proc "/spool/new" in
        List.iter
          (fun e ->
            let path = "/spool/new/" ^ e.Hare_proto.Wire.e_name in
            let fd = Posix.openf proc path flags_r in
            let msg = Posix.read_all proc fd in
            Posix.close proc fd;
            Posix.unlink proc path;
            incr picked;
            ignore msg)
          entries;
        if entries = [] then Posix.compute proc 50_000 (* idle poll *)
      done;
      Posix.print proc (Printf.sprintf "picked up %d messages\n" !picked);
      0);

  let init, console =
    Machine.spawn_init machine ~name:"mail-main" (fun proc _args ->
        Posix.mkdir proc "/spool";
        Posix.mkdir proc ~dist:true "/spool/tmp";
        Posix.mkdir proc ~dist:true "/spool/new";
        let picker = Posix.spawn proc ~prog:"picker" ~args:[] in
        let ds =
          List.init deliverers (fun i ->
              Posix.spawn proc ~prog:"deliverer" ~args:[ string_of_int i ])
        in
        let bad = List.filter (fun pid -> Posix.waitpid proc pid <> 0) ds in
        let picker_status = Posix.waitpid proc picker in
        let leftovers = Posix.readdir proc "/spool/new" in
        Posix.print proc
          (Printf.sprintf "spool empty: %b\n" (leftovers = []));
        if bad = [] && picker_status = 0 && leftovers = [] then 0 else 1)
  in
  Machine.run machine;
  print_string (Buffer.contents console);
  Printf.printf "mail server exited %s in %.3f simulated ms\n"
    (match Machine.exit_status machine init with
    | Some st -> string_of_int st
    | None -> "?")
    (Machine.seconds machine *. 1000.0)
