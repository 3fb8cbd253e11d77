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

(* Entry placement pinned to values recorded with the 64-bit [Int64]
   FNV-1a: (dir, name, hash, shard base on 8 servers, entry server at
   width 8 of 8, width 3 of 8, width 4 of 5). A change to the hash moves
   every distributed directory's entries, and every simulated clock. *)
let placement_table =
  [
    ({ Types.server = 0; ino = 1 }, "", 323128323731756362, 2, 4, 3, 4);
    ({ server = 0; ino = 1 }, "a", 342701079017158673, 2, 3, 4, 3);
    ({ server = 0; ino = 1 }, "etc", 3486949262875940184, 2, 2, 2, 2);
    ({ server = 3; ino = 42 }, "file_0001", 3822153428872126736, 0, 0, 2, 0);
    ({ server = 7; ino = 1193046 }, "Makefile", 1085103708118905766, 2, 0, 3, 4);
    ({ server = 1; ino = 65537 }, "spool/mail", 958785950468081459, 4, 7, 6, 0);
    ({ server = 255; ino = 16777215 }, "\255\000z", 3996006026459531436, 1, 5, 1, 0);
  ]

let test_placement_hash_pinned () =
  List.iter
    (fun (dir, name, hash, base, w8, w3, w4of5) ->
      let at width nservers =
        Types.dentry_server ~dist:true ~width ~nservers ~dir ~name
      in
      Alcotest.(check int) ("hash " ^ name) hash (Types.hash_name ~dir ~name);
      Alcotest.(check int) "shard base" base (Types.shard_base ~nservers:8 ~dir);
      Alcotest.(check int) "width 8 of 8" w8 (at 8 8);
      Alcotest.(check int) "width 3 of 8" w3 (at 3 8);
      Alcotest.(check int) "width 4 of 5" w4of5 (at 4 5);
      Alcotest.(check int) "centralized" dir.server
        (Types.dentry_server ~dist:false ~width:8 ~nservers:8 ~dir ~name))
    placement_table

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
let catalogue =
  let d = Types.root_ino in
  [
    (Wire.Lookup { dir = d; name = "x" },
      ("LOOKUP", "srv:LOOKUP", Wire.Metadata, 200, true));
    (Wire.Add_map
        { dir = d; name = "x"; target = d; ftype = Types.Reg; dist = false;
          replace = false },
      ("ADD_MAP", "srv:ADD_MAP", Wire.Metadata, 400, true));
    (Wire.Rm_map { dir = d; name = "x"; only_if = None },
      ("RM_MAP", "srv:RM_MAP", Wire.Metadata, 0, true));
    (Wire.Readdir_shard { dir = d },
      ("READDIR", "srv:READDIR", Wire.Metadata, 200, true));
    (Wire.Create_open { dir = d; name = "x"; excl = false; trunc = false },
      ("CREATE_OPEN", "srv:CREATE_OPEN", Wire.Metadata, 900, true));
    (Wire.Create_inode { ftype = Types.Reg; dist = false; and_open = false },
      ("CREATE_INODE", "srv:CREATE_INODE", Wire.Metadata, 500, true));
    (Wire.Create_dir { dir = d; name = "d"; dist = false },
      ("CREATE_DIR", "srv:CREATE_DIR", Wire.Metadata, 800, true));
    (Wire.Open_inode { ino = d; trunc = false },
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
    (Wire.Rmdir_prepare { dir = d },
      ("RMDIR_PREPARE", "srv:RMDIR_PREPARE", Wire.Metadata, 250, true));
    (Wire.Rmdir_commit { dir = d },
      ("RMDIR_COMMIT", "srv:RMDIR_COMMIT", Wire.Metadata, 250, true));
    (Wire.Rmdir_abort { dir = d },
      ("RMDIR_ABORT", "srv:RMDIR_ABORT", Wire.Metadata, 250, true));
    (Wire.Rmdir_local { dir = d },
      ("RMDIR_LOCAL", "srv:RMDIR_LOCAL", Wire.Metadata, 400, true));
    (Wire.Pipe_create,
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

let test_req_names_distinct () =
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

(* Per-op counters index arrays by [Wire.info]'s opcode: one per
   constructor, dense from 0. *)
let test_opcodes_dense () =
  Alcotest.(check int) "nops" (List.length catalogue) Wire.nops;
  Alcotest.(check (list int)) "each of 0 .. nops-1 exactly once"
    (List.init Wire.nops Fun.id)
    (List.sort compare
       (List.map (fun (req, _) -> (Wire.info req).Wire.op) catalogue))

(* Counting by interned id and by name is one counter: the reports see
   no difference, and ids are shared across counters. *)
let test_opcount_indexed () =
  let by_id = Opcount.create () and by_name = Opcount.create () in
  let lookup = Opcount.intern "LOOKUP" and readdir = Opcount.intern "READDIR" in
  Alcotest.(check int) "interning is idempotent" lookup (Opcount.intern "LOOKUP");
  Alcotest.(check string) "name of id" "READDIR" (Opcount.name readdir);
  for _ = 1 to 3 do Opcount.bump by_id readdir done;
  Opcount.bump by_id lookup;
  Opcount.incr ~by:3 by_name "READDIR";
  Opcount.incr by_name "LOOKUP";
  let report t = (Opcount.to_list t, Opcount.total t, Opcount.get t "READDIR") in
  let same = Alcotest.(triple (list (pair string int)) int int) in
  Alcotest.check same "bump = incr" (report by_name) (report by_id);
  Alcotest.check same "report"
    ([ ("READDIR", 3); ("LOOKUP", 1) ], 4, 3)
    (report by_id);
  (* a name interned by another counter is not listed here *)
  ignore (Opcount.intern "UNUSED-IN-THIS-COUNTER");
  Alcotest.check same "unseen ids unlisted" (report by_name) (report by_id);
  let since = Opcount.snapshot by_id in
  Opcount.bump by_id lookup;
  Opcount.incr by_id "fresh-name";
  Alcotest.(check (list (pair string int)))
    "diff"
    [ ("LOOKUP", 1); ("fresh-name", 1) ]
    (Opcount.to_list (Opcount.diff ~since by_id));
  let merged = Opcount.create () in
  Opcount.merge ~into:merged by_name;
  Opcount.merge ~into:merged by_id;
  Alcotest.(check (list (pair string int)))
    "merge"
    [ ("READDIR", 6); ("LOOKUP", 3); ("fresh-name", 1) ]
    (Opcount.to_list merged)

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

(* ---------- boot footprint ------------------------------------------------ *)

(* The default machine's 2 GB buffer cache (524,288 blocks) costs its host
   only what a run touches: the free lists hold their ranges as two ints
   and the DRAM page table allocates its leaves on first write. Filled
   per block, boot grew the live heap by about 2.30M words. *)
let test_boot_footprint () =
  Gc.compact ();
  let w0 = (Gc.stat ()).live_words in
  let m = Hare.Machine.boot Config.default in
  Gc.compact ();
  let grown = (Gc.stat ()).live_words - w0 in
  ignore (Sys.opaque_identity m);
  if grown >= 400_000 then
    Alcotest.failf "Machine.boot Config.default grew the live heap by %d words"
      grown

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "misc.stats",
      [
        tc "opcount basics" `Quick test_opcount_basics;
        tc "opcount breakdown" `Quick test_opcount_breakdown;
        tc "opcount indexed" `Quick test_opcount_indexed;
        tc "table render" `Quick test_table_render;
        tc "sloc" `Quick test_sloc_counts_this_repo;
      ] );
    ( "misc.proto",
      [
        tc "pid encoding" `Quick test_pid_encoding;
        tc "placement hash pinned" `Quick test_placement_hash_pinned;
        tc "errno strings" `Quick test_errno_strings;
        tc "req names distinct" `Quick test_req_names_distinct;
        tc "opcodes dense" `Quick test_opcodes_dense;
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
    ("misc.boot", [ tc "footprint" `Quick test_boot_footprint ]);
  ]
