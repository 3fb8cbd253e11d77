(* Coverage for the small supporting modules: statistics, protocol
   types, fd tables, configuration validation, placement policy. *)

module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
module Wire = Hare_proto.Wire
module Config = Hare_config.Config
module Costs = Hare_config.Costs
module Opcount = Hare_stats.Opcount
module Fdtable = Hare_client.Fdtable

(* ---------- stats ------------------------------------------------------- *)

let test_opcount_basics () =
  let t = Opcount.create () in
  Opcount.incr t "open";
  Opcount.incr t "open";
  Opcount.incr ~by:3 t "read";
  Alcotest.(check int) "get" 2 (Opcount.get t "open");
  Alcotest.(check int) "total" 5 (Opcount.total t);
  Alcotest.(check (list (pair string int)))
    "sorted by count"
    [ ("read", 3); ("open", 2) ]
    (Opcount.to_list t);
  let copy = Opcount.snapshot t in
  Opcount.incr t "open";
  Alcotest.(check int) "snapshot isolated" 2 (Opcount.get copy "open");
  let d = Opcount.diff ~since:copy t in
  Alcotest.(check int) "diff" 1 (Opcount.get d "open");
  Alcotest.(check int) "diff omits unchanged" 0 (Opcount.get d "read")

let test_opcount_breakdown () =
  let t = Opcount.create () in
  Opcount.incr ~by:3 t "a";
  Opcount.incr ~by:1 t "b";
  match Opcount.breakdown t with
  | [ ("a", sa); ("b", sb) ] ->
      Alcotest.(check (float 0.001)) "a share" 0.75 sa;
      Alcotest.(check (float 0.001)) "b share" 0.25 sb
  | _ -> Alcotest.fail "unexpected breakdown"

let test_table_render () =
  let s =
    Hare_stats.Table.render ~headers:[ "x"; "y" ] [ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has rule" true (String.length s > 0);
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Table.render: row 0 has wrong arity") (fun () ->
      ignore (Hare_stats.Table.render ~headers:[ "a" ] [ [ "1"; "2" ] ]))

let test_sloc_counts_this_repo () =
  match Hare_stats.Sloc.repo_root () with
  | None -> Alcotest.fail "repo root not found"
  | Some root ->
      let n = Hare_stats.Sloc.count_tree (Filename.concat root "lib/sim") in
      Alcotest.(check bool) "sim library is nontrivial" true (n > 300)

(* ---------- proto ------------------------------------------------------- *)

let test_pid_encoding () =
  for core = 0 to 63 do
    let pid = Types.make_pid ~core ~seq:(core * 7) in
    Alcotest.(check int) "core roundtrip" core (Types.core_of_pid pid)
  done

let test_errno_strings () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "nonempty" true (String.length (Errno.to_string e) > 0))
    [ Errno.ENOENT; Errno.EEXIST; Errno.ENOTDIR; Errno.EISDIR; Errno.ENOTEMPTY;
      Errno.EBADF; Errno.EINVAL; Errno.EPIPE; Errno.ENOSPC; Errno.ESPIPE;
      Errno.ECHILD; Errno.ESRCH; Errno.EMFILE; Errno.ENOSYS; Errno.ENOEXEC;
      Errno.EACCES; Errno.EBUSY ]

type Wire.pack += Pack

(* The request catalogue, pinned: every opcode's wire name, span name,
   shed class, base cost and retry safety, as the paper-faithful clocks
   and the trace exports were recorded with. *)
let test_req_names_distinct () =
  let d = Types.root_ino in
  let catalogue =
    [
      (Wire.Lookup { dir = d; name = "x"; client = 0; home = 0 },
        ("LOOKUP", "srv:LOOKUP", Wire.Metadata, 200, true));
      (Wire.Add_map
          { dir = d; name = "x"; target = d; ftype = Types.Reg; dist = false;
            replace = false; client = 0; home = 0 },
        ("ADD_MAP", "srv:ADD_MAP", Wire.Metadata, 400, true));
      (Wire.Rm_map { dir = d; name = "x"; only_if = None; client = 0; home = 0 },
        ("RM_MAP", "srv:RM_MAP", Wire.Metadata, 0, true));
      (Wire.Readdir_shard { dir = d; home = 0 },
        ("READDIR", "srv:READDIR", Wire.Metadata, 200, true));
      (Wire.Create_open
          { dir = d; name = "x"; excl = false; trunc = false; client = 0; home = 0 },
        ("CREATE_OPEN", "srv:CREATE_OPEN", Wire.Metadata, 900, true));
      (Wire.Create_inode { ftype = Types.Reg; dist = false; and_open = false; home = 0 },
        ("CREATE_INODE", "srv:CREATE_INODE", Wire.Metadata, 500, true));
      (Wire.Create_dir { dir = d; name = "d"; dist = false; client = 0; home = 0 },
        ("CREATE_DIR", "srv:CREATE_DIR", Wire.Metadata, 800, true));
      (Wire.Open_inode { ino = d; trunc = false; client = 0 },
        ("OPEN", "srv:OPEN", Wire.Metadata, 400, true));
      (Wire.Close_fd { token = 1; size = None },
        ("CLOSE", "srv:CLOSE", Wire.Metadata, 200, true));
      (Wire.Read_fd { token = 1; off = None; len = 1 },
        ("READ", "srv:READ", Wire.Data, 300, true));
      (Wire.Write_fd { token = 1; off = None; data = ""; append = false },
        ("WRITE", "srv:WRITE", Wire.Data, 300, true));
      (Wire.Lseek_fd { token = 1; pos = 0; whence = Types.Seek_set },
        ("LSEEK", "srv:LSEEK", Wire.Metadata, 100, true));
      (Wire.Alloc_blocks { ino = d; count = 3; ahead = 2 },
        ("ALLOC", "srv:ALLOC", Wire.Data, 150, true));
      (Wire.Get_blocks { ino = d },
        ("GET_BLOCKS", "srv:GET_BLOCKS", Wire.Data, 150, true));
      (Wire.Update_size { token = 1; size = 0 },
        ("UPDATE_SIZE", "srv:UPDATE_SIZE", Wire.Data, 100, true));
      (Wire.Get_attr { ino = d },
        ("GETATTR", "srv:GETATTR", Wire.Metadata, 150, true));
      (Wire.Truncate { ino = d; size = 0 },
        ("TRUNCATE", "srv:TRUNCATE", Wire.Metadata, 300, true));
      (Wire.Unlink_ino { ino = d },
        ("UNLINK_INO", "srv:UNLINK_INO", Wire.Background, 250, true));
      (Wire.Inc_fd_ref { token = 1; offset = None },
        ("INC_FD_REF", "srv:INC_FD_REF", Wire.Metadata, 150, true));
      (Wire.Rmdir_lock { dir = d },
        ("RMDIR_LOCK", "srv:RMDIR_LOCK", Wire.Metadata, 150, false));
      (Wire.Rmdir_unlock { dir = d },
        ("RMDIR_UNLOCK", "srv:RMDIR_UNLOCK", Wire.Metadata, 150, true));
      (Wire.Rmdir_prepare { dir = d; home = 0 },
        ("RMDIR_PREPARE", "srv:RMDIR_PREPARE", Wire.Metadata, 250, true));
      (Wire.Rmdir_commit { dir = d; client = 0; home = 0 },
        ("RMDIR_COMMIT", "srv:RMDIR_COMMIT", Wire.Metadata, 250, true));
      (Wire.Rmdir_abort { dir = d; home = 0 },
        ("RMDIR_ABORT", "srv:RMDIR_ABORT", Wire.Metadata, 250, true));
      (Wire.Rmdir_local { dir = d; client = 0 },
        ("RMDIR_LOCAL", "srv:RMDIR_LOCAL", Wire.Metadata, 400, true));
      (Wire.Pipe_create { client = 0; home = 0 },
        ("PIPE_CREATE", "srv:PIPE_CREATE", Wire.Metadata, 500, true));
      (Wire.Pipe_read { token = 1; len = 1 },
        ("PIPE_READ", "srv:PIPE_READ", Wire.Data, 200, false));
      (Wire.Pipe_write { token = 1; data = "" },
        ("PIPE_WRITE", "srv:PIPE_WRITE", Wire.Data, 200, false));
      (Wire.Steal_blocks { count = 1 },
        ("STEAL_BLOCKS", "srv:STEAL_BLOCKS", Wire.Background, 300, true));
      (Wire.Migrate_out { home = 0 },
        ("MIGRATE_OUT", "srv:MIGRATE_OUT", Wire.Metadata, 800, true));
      (Wire.Install_shard { home = 0; pack = Pack },
        ("INSTALL_SHARD", "srv:INSTALL_SHARD", Wire.Metadata, 800, true));
    ]
  in
  Alcotest.(check int) "every opcode" 31 (List.length catalogue);
  List.iter
    (fun (req, (name, span, shed, cost, retryable)) ->
      let i = Wire.info req in
      Alcotest.(check string) "name" name i.Wire.name;
      Alcotest.(check string) (name ^ " span") span i.span;
      Alcotest.(check bool) (name ^ " class") true (shed = i.shed);
      Alcotest.(check int) (name ^ " cost") cost i.cost;
      Alcotest.(check bool) (name ^ " retryable") retryable i.retryable)
    catalogue;
  let names = List.map (fun (_, (n, _, _, _, _)) -> n) catalogue in
  Alcotest.(check int) "all distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_pp_smoke () =
  let s =
    Format.asprintf "%a / %a" Types.pp_ino Types.root_ino Types.pp_ftype
      Types.Fifo
  in
  Alcotest.(check bool) "pp renders" true (String.length s > 5)

(* ---------- fdtable ----------------------------------------------------- *)

let console_entry () =
  { Fdtable.desc = Fdtable.Console (Wire.Console_local (Buffer.create 1));
    local_refs = 1 }

let test_fdtable_lowest_free () =
  let t = Fdtable.create () in
  let a = Fdtable.alloc t (console_entry ()) in
  let b = Fdtable.alloc t (console_entry ()) in
  let c = Fdtable.alloc t (console_entry ()) in
  Alcotest.(check (list int)) "sequential" [ 0; 1; 2 ] [ a; b; c ];
  Fdtable.remove t 1;
  Alcotest.(check int) "reuses lowest" 1 (Fdtable.alloc t (console_entry ()));
  Alcotest.(check (list int)) "fds sorted" [ 0; 1; 2 ] (Fdtable.fds t)

let test_fdtable_distinct_entries () =
  let t = Fdtable.create () in
  let e = console_entry () in
  ignore (Fdtable.alloc t e);
  Fdtable.alloc_at t 5 e;
  ignore (Fdtable.alloc t (console_entry ()));
  Alcotest.(check int) "dup'd entry counted once" 2
    (List.length (Fdtable.distinct_entries t));
  Alcotest.check_raises "bad fd"
    (Errno.Error (Errno.EBADF, "99"))
    (fun () -> ignore (Fdtable.find_exn t 99))

(* ---------- config ------------------------------------------------------ *)

let test_config_validate () =
  let ok c = Alcotest.(check bool) "valid" true (Config.validate c = Ok ()) in
  let bad c = Alcotest.(check bool) "invalid" true (Config.validate c <> Ok ()) in
  ok Config.default;
  bad { Config.default with Config.ncores = 0 };
  bad { Config.default with Config.placement = Config.Split 40 };
  bad { Config.default with Config.placement = Config.Split 0 };
  ok { Config.default with Config.placement = Config.Split 39 };
  bad { Config.default with Config.buffer_cache_blocks = 0 }

let test_config_core_partition () =
  let c = { Config.default with Config.ncores = 8; placement = Config.Split 3 } in
  Alcotest.(check (list int)) "server cores" [ 0; 1; 2 ] (Config.server_cores c);
  Alcotest.(check (list int)) "app cores" [ 3; 4; 5; 6; 7 ] (Config.app_cores c);
  Alcotest.(check int) "nservers" 3 (Config.nservers c);
  let ts = { c with Config.placement = Config.Timeshare } in
  Alcotest.(check int) "timeshare servers" 8 (Config.nservers ts);
  Alcotest.(check (list int)) "timeshare apps = all" (List.init 8 Fun.id)
    (Config.app_cores ts)

let test_costs_conversions () =
  let c = Costs.default in
  Alcotest.(check (float 0.0001)) "us" 1.0
    (Costs.us_of_cycles c (Int64.of_int c.Costs.cycles_per_us));
  Alcotest.(check (float 1e-9)) "seconds" 1e-6
    (Costs.seconds_of_cycles c (Int64.of_int c.Costs.cycles_per_us))

(* ---------- placement policy ------------------------------------------- *)

let test_round_robin_covers_cores () =
  let config = Test_util.small_config ~ncores:4 () in
  let m = Test_util.Machine.boot config in
  let seen = Hashtbl.create 4 in
  Test_util.Machine.register_program m "mark" (fun p _ ->
      Hashtbl.replace seen p.Test_util.P.core_id ();
      0);
  let init, _ =
    Test_util.Machine.spawn_init m ~name:"t" (fun p _ ->
        let pids =
          List.init 8 (fun _ -> Hare.Posix.spawn p ~prog:"mark" ~args:[])
        in
        List.iter (fun pid -> ignore (Hare.Posix.waitpid p pid)) pids;
        0)
  in
  Test_util.Machine.run m;
  ignore init;
  Alcotest.(check int) "all 4 cores used" 4 (Hashtbl.length seen)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "misc.stats",
      [
        tc "opcount basics" `Quick test_opcount_basics;
        tc "opcount breakdown" `Quick test_opcount_breakdown;
        tc "table render" `Quick test_table_render;
        tc "sloc" `Quick test_sloc_counts_this_repo;
      ] );
    ( "misc.proto",
      [
        tc "pid encoding" `Quick test_pid_encoding;
        tc "errno strings" `Quick test_errno_strings;
        tc "req names distinct" `Quick test_req_names_distinct;
        tc "pp smoke" `Quick test_pp_smoke;
      ] );
    ( "misc.fdtable",
      [
        tc "lowest free" `Quick test_fdtable_lowest_free;
        tc "distinct entries" `Quick test_fdtable_distinct_entries;
      ] );
    ( "misc.config",
      [
        tc "validate" `Quick test_config_validate;
        tc "core partition" `Quick test_config_core_partition;
        tc "cost conversions" `Quick test_costs_conversions;
      ] );
    ("misc.policy", [ tc "round robin coverage" `Quick test_round_robin_covers_cores ]);
  ]
