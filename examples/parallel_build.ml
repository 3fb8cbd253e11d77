(* Parallel build: a miniature `make -j` on Hare, demonstrating the two
   POSIX idioms the paper uses to motivate single-system-image support —
   a jobserver pipe shared across fork/exec (§1) and compilers running on
   remote cores via the scheduling servers (§3.5).

   Run with:  dune exec examples/parallel_build.exe *)

module Config = Hare_config.Config
module Machine = Hare.Machine
module Posix = Hare.Posix
open Hare_proto.Types

let nfiles = 12

let () =
  let config = { Config.default with ncores = 8; buffer_cache_blocks = 8192 } in
  let machine = Machine.boot config in

  (* "cc": takes a jobserver token, reads the source, compiles, writes
     the object, returns the token. The pipe fds arrive via argv, as GNU
     make passes --jobserver-fds. *)
  Machine.register_program machine "cc" (fun proc args ->
      match args with
      | [ src; obj; rfd; wfd ] ->
          let rfd = int_of_string rfd and wfd = int_of_string wfd in
          let token = Posix.read proc rfd ~len:1 in
          let fd = Posix.openf proc src flags_r in
          let source = Posix.read_all proc fd in
          Posix.close proc fd;
          Posix.compute proc (200 * String.length source);
          let fd = Posix.creat proc obj in
          ignore (Posix.write proc fd ("ELF:" ^ src));
          Posix.close proc fd;
          Posix.print proc
            (Printf.sprintf "  cc %s -> %s (core %d)\n" src obj
               proc.Hare_proc.Process.core_id);
          ignore (Posix.write proc wfd token);
          0
      | _ -> 2);

  let init, console =
    Machine.spawn_init machine ~name:"make" (fun proc _args ->
        Posix.mkdir proc ~dist:true "/src";
        for i = 0 to nfiles - 1 do
          let fd = Posix.creat proc (Printf.sprintf "/src/mod%02d.c" i) in
          ignore (Posix.write proc fd (String.make 500 'c'));
          Posix.close proc fd
        done;
        (* jobserver with 4 slots *)
        let rfd, wfd = Posix.pipe proc in
        ignore (Posix.write proc wfd "tttt");
        let pids =
          List.init nfiles (fun i ->
              Posix.spawn proc ~prog:"cc"
                ~args:
                  [
                    Printf.sprintf "/src/mod%02d.c" i;
                    Printf.sprintf "/src/mod%02d.o" i;
                    string_of_int rfd;
                    string_of_int wfd;
                  ])
        in
        let failures =
          List.filter (fun pid -> Posix.waitpid proc pid <> 0) pids
        in
        let objects =
          Posix.readdir proc "/src"
          |> List.filter (fun e ->
                 Filename.check_suffix e.Hare_proto.Wire.e_name ".o")
        in
        Posix.print proc
          (Printf.sprintf "built %d/%d objects, %d failures\n"
             (List.length objects) nfiles (List.length failures));
        if failures = [] && List.length objects = nfiles then 0 else 1)
  in
  Machine.run machine;
  print_string (Buffer.contents console);
  Printf.printf "make exited %s in %.3f simulated ms\n"
    (match Machine.exit_status machine init with
    | Some st -> string_of_int st
    | None -> "?")
    (Machine.seconds machine *. 1000.0)
