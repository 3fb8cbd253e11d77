(* Schedule exploration (PR 10): the linearizability oracle judges
   hand-built histories correctly, the deterministic strategy is stable,
   exhaustive DPOR enumerates a stable reduced schedule tree and leaves
   every clean scenario clean, every PR 5 protocol mutation is caught
   within the CI budget, and each reported violation's choice list
   replays to the same violation. *)

module Errno = Hare_proto.Errno
module Model = Hare_explore.Model
module Oracle = Hare_explore.Oracle
module Runner = Hare_explore.Runner
module Scenario = Hare_explore.Scenario

(* ---------- oracle units ------------------------------------------------ *)

let ev c op res inv resp =
  {
    Oracle.e_client = c;
    e_op = op;
    e_result = res;
    e_inv = inv;
    e_res = resp;
  }

let expect_ok name history =
  match Oracle.check history with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: expected Ok, got:\n%s" name msg

let expect_violation name history =
  match Oracle.check history with
  | Ok () -> Alcotest.failf "%s: expected a violation, got Ok" name
  | Error _ -> ()

let test_oracle_close_to_open () =
  (* Reader opens after the writer's close completed: the close-to-open
     edge forces it to see the write. *)
  let h =
    [
      ev 0 (Model.Open { h = 1; path = "/a"; create = true }) (Ok (Model.Fd 1))
        0L 10L;
      ev 0 (Model.Write { h = 1; data = "x" }) (Ok (Model.Int 1)) 20L 30L;
      ev 0 (Model.Close 1) (Ok Model.Unit) 40L 50L;
      ev 1 (Model.Open { h = 1; path = "/a"; create = false }) (Ok (Model.Fd 1))
        60L 70L;
      ev 1 (Model.Read 1) (Ok (Model.Data "x")) 80L 90L;
      ev 1 (Model.Close 1) (Ok Model.Unit) 92L 99L;
    ]
  in
  expect_ok "fresh read after close" h;
  (* The same history returning stale data has no witness. *)
  let stale =
    List.map
      (fun e ->
        match e.Oracle.e_op with
        | Model.Read _ -> { e with Oracle.e_result = Ok (Model.Data "") }
        | _ -> e)
      h
  in
  expect_violation "stale read after close-to-open" stale

let test_oracle_concurrent_freedom () =
  (* A read overlapping the write in real time carries no edge: both the
     old and the new contents are legal. *)
  let base read_result =
    [
      ev 0 (Model.Open { h = 1; path = "/a"; create = true }) (Ok (Model.Fd 1))
        0L 10L;
      ev 0 (Model.Write { h = 1; data = "x" }) (Ok (Model.Int 1)) 20L 30L;
      ev 0 (Model.Close 1) (Ok Model.Unit) 100L 110L;
      ev 1 (Model.Open { h = 1; path = "/a"; create = false }) (Ok (Model.Fd 1))
        12L 18L;
      ev 1 (Model.Read 1) (Ok (Model.Data read_result)) 22L 40L;
    ]
  in
  expect_ok "concurrent read may see the write" (base "x");
  expect_ok "concurrent read may miss the write" (base "")

let test_oracle_model_errors () =
  (* Error results are checked against the model too. *)
  expect_ok "stat of nothing is ENOENT"
    [ ev 0 (Model.Stat "/nope") (Error Errno.ENOENT) 0L 10L ];
  expect_ok "close of nothing is EBADF"
    [ ev 0 (Model.Close 9) (Error Errno.EBADF) 0L 10L ];
  (* A stat invoked after the creating close completed must see the
     file; a recorded ENOENT is a violation. *)
  expect_violation "stat misses a closed create"
    [
      ev 0 (Model.Open { h = 1; path = "/a"; create = true }) (Ok (Model.Fd 1))
        0L 10L;
      ev 0 (Model.Close 1) (Ok Model.Unit) 20L 30L;
      ev 1 (Model.Stat "/a") (Error Errno.ENOENT) 50L 60L;
    ];
  (* A stat records the size it saw: after the close, only the written
     size explains it. *)
  let stat_after_write size =
    [
      ev 0 (Model.Open { h = 0; path = "/a"; create = true }) (Ok (Model.Fd 0))
        0L 10L;
      ev 0 (Model.Write { h = 0; data = "xyz" }) (Ok (Model.Int 3)) 20L 30L;
      ev 0 (Model.Close 0) (Ok Model.Unit) 40L 50L;
      ev 1 (Model.Stat "/a") (Ok (Model.Int size)) 60L 70L;
    ]
  in
  expect_ok "stat sees the closed size" (stat_after_write 3);
  expect_violation "stat misses the closed size" (stat_after_write 0)

(* The corners where the oracle's and the property tests' models used
   to disagree, and the descriptor corners of the inode-level model,
   pinned on the one model; some through the oracle too. *)
let test_model_corners () =
  let run st ops =
    List.fold_left
      (fun (_, st) op -> Model.apply st ~proc:0 op)
      (Ok Model.Unit, st) ops
  in
  let outcome st ops = Model.result_to_string (fst (run st ops)) in
  let dirs = Model.init [ "/d"; "/d/s"; "/e" ] in
  let st =
    snd (run dirs [ Model.Open { h = 0; path = "/f"; create = true } ])
  in
  List.iter
    (fun (what, ops, want) ->
      Alcotest.(check string) what want (outcome st ops))
    [
      ("O_CREAT open of a directory",
       [ Model.Open { h = 1; path = "/d"; create = true } ], "EISDIR");
      ("unlink of a directory", [ Model.Unlink "/d" ], "EISDIR");
      ("stat under a file", [ Model.Stat "/f/x" ], "ENOTDIR");
      ("create under a file",
       [ Model.Open { h = 1; path = "/f/x"; create = true } ], "ENOTDIR");
      ("mkdir under a file", [ Model.Mkdir "/f/x" ], "ENOTDIR");
      ("create under a missing directory",
       [ Model.Open { h = 1; path = "/x/y"; create = true } ], "ENOENT");
      ("rmdir of a file", [ Model.Rmdir "/f" ], "ENOTDIR");
      ("rmdir of a non-empty directory", [ Model.Rmdir "/d" ], "ENOTEMPTY");
      ("rmdir of an empty directory", [ Model.Rmdir "/e" ], "ok");
      (* Descriptors: h0 names /f's inode at offset 0. *)
      ("open of a handle that is open",
       [ Model.Open { h = 0; path = "/f"; create = false } ], "EBADF");
      ("write through an orphan",
       [ Model.Unlink "/f"; Model.Write { h = 0; data = "abc" } ], "3");
      ("read back through an orphan",
       [ Model.Unlink "/f"; Model.Write { h = 0; data = "abc" };
         Model.Seek { h = 0; off = 1 }; Model.Read 0 ], "2 bytes");
      ("the orphan has no name",
       [ Model.Unlink "/f"; Model.Stat "/f" ], "ENOENT");
      ("rename over an open file keeps its contents",
       [ Model.Write { h = 0; data = "old" };
         Model.Open { h = 1; path = "/g"; create = true };
         Model.Write { h = 1; data = "newer" };
         Model.Rename { src = "/g"; dst = "/f" };
         Model.Seek { h = 0; off = 0 }; Model.Read 0 ], "3 bytes");
      ("the path names the renamed file",
       [ Model.Write { h = 0; data = "old" };
         Model.Open { h = 1; path = "/g"; create = true };
         Model.Write { h = 1; data = "newer" };
         Model.Rename { src = "/g"; dst = "/f" }; Model.Stat "/f" ], "5");
      ("write after close",
       [ Model.Close 0; Model.Write { h = 0; data = "x" } ], "EBADF");
      ("read after close", [ Model.Close 0; Model.Read 0 ], "EBADF");
      ("close after close", [ Model.Close 0; Model.Close 0 ], "EBADF");
      ("a closed handle's name opens again",
       [ Model.Close 0; Model.Open { h = 0; path = "/f"; create = false };
         Model.Read 0 ], "0 bytes");
    ];
  Alcotest.(check string) "another process's handle is EBADF" "EBADF"
    (Model.result_to_string (fst (Model.apply st ~proc:1 (Model.Read 0))));
  (* The orphan lives while a handle names it and goes with the last
     close: the state is then the empty tree again. *)
  let orphaned = snd (run st [ Model.Unlink "/f" ]) in
  Alcotest.(check bool) "an open orphan is kept" true
    (Model.compare orphaned dirs <> 0);
  Alcotest.(check int) "the last close drops the orphan" 0
    (Model.compare (snd (run orphaned [ Model.Close 0 ])) dirs);
  Alcotest.(check bool) "a close leaves a named file" true
    (Model.compare (snd (run st [ Model.Close 0 ])) dirs <> 0);
  let creat_d result =
    [
      ev 0 (Model.Mkdir "/d") (Ok Model.Unit) 0L 10L;
      ev 0 (Model.Open { h = 0; path = "/d"; create = true }) result 20L 30L;
    ]
  in
  expect_ok "O_CREAT open of a directory is EISDIR"
    (creat_d (Error Errno.EISDIR));
  expect_violation "O_CREAT open of a directory makes no file"
    (creat_d (Ok (Model.Fd 0)));
  (* Through the oracle: a descriptor outlives a remote unlink of its
     path, and reads back what it wrote. The stat that sees the unlink
     orders it before the write. *)
  expect_ok "an orphan reads back through its descriptor"
    [
      ev 0 (Model.Open { h = 0; path = "/a"; create = true }) (Ok (Model.Fd 0))
        0L 10L;
      ev 1 (Model.Unlink "/a") (Ok Model.Unit) 20L 30L;
      ev 0 (Model.Stat "/a") (Error Errno.ENOENT) 32L 38L;
      ev 0 (Model.Write { h = 0; data = "xy" }) (Ok (Model.Int 2)) 40L 50L;
      ev 0 (Model.Seek { h = 0; off = 0 }) (Ok (Model.Int 0)) 60L 70L;
      ev 0 (Model.Read 0) (Ok (Model.Data "xy")) 80L 90L;
    ];
  (* The printer the oracle's violations and the property failures
     share. *)
  Alcotest.(check (list string)) "history text"
    [ "open(/r.dat, create) -> h0"; "write(h0, 64 bytes) -> 64";
      "read(h1) -> 64 bytes"; "close(h0) -> ok"; "stat(/d) -> dir";
      "readdir(/d) -> [a,b]"; "unlink(/x) -> ENOENT" ]
    (List.map
       (fun (op, r) ->
         Model.op_to_string op ^ " -> " ^ Model.result_to_string r)
       [
         ( Model.Open { h = 0; path = "/r.dat"; create = true },
           Ok (Model.Fd 0) );
         (Model.Write { h = 0; data = String.make 64 'a' }, Ok (Model.Int 64));
         (Model.Read 1, Ok (Model.Data (String.make 64 'a')));
         (Model.Close 0, Ok Model.Unit);
         (Model.Stat "/d", Ok Model.Is_dir);
         (Model.Readdir "/d", Ok (Model.Names [ "a"; "b" ]));
         (Model.Unlink "/x", Error Errno.ENOENT);
       ])

(* ---------- strategies on the live scenarios ---------------------------- *)

let stats_eq name (a : Runner.stats) (b : Runner.stats) =
  Alcotest.(check int) (name ^ ": schedules") a.Runner.schedules b.Runner.schedules;
  Alcotest.(check int)
    (name ^ ": choice points")
    a.Runner.choice_points b.Runner.choice_points;
  Alcotest.(check int) (name ^ ": max depth") a.Runner.max_depth b.Runner.max_depth;
  Alcotest.(check int)
    (name ^ ": sleep-set prunes")
    a.Runner.sleep_blocked b.Runner.sleep_blocked;
  Alcotest.(check bool) (name ^ ": complete") a.Runner.complete b.Runner.complete;
  Alcotest.(check int)
    (name ^ ": violations")
    (List.length a.Runner.violations)
    (List.length b.Runner.violations)

let test_deterministic_stable () =
  let run () =
    Runner.explore
      ~scenario:(Scenario.find "handoff")
      ~strategy:Runner.Deterministic ~budget:1 ()
  in
  let s = run () in
  Alcotest.(check int) "one schedule" 1 s.Runner.schedules;
  Alcotest.(check (list string)) "clean" []
    (List.map (fun v -> v.Runner.v_kind) s.Runner.violations);
  stats_eq "two deterministic runs" s (run ())

let test_dpor_exhaustive_stable () =
  (* The collide scenario's reduced schedule tree: two racing creates
     into one server tie on delivery order. Its size is a golden value —
     a change means the independence relation or the engine's tie
     structure moved, which must be deliberate. *)
  let run () =
    Runner.explore
      ~scenario:(Scenario.find "collide")
      ~strategy:Runner.Dpor ~budget:500 ()
  in
  let s = run () in
  Alcotest.(check bool) "exhaustive within budget" true s.Runner.complete;
  Alcotest.(check int) "golden reduced-tree size" 4 s.Runner.schedules;
  Alcotest.(check (list string)) "clean" []
    (List.map (fun v -> v.Runner.v_kind) s.Runner.violations);
  stats_eq "two DPOR runs" s (run ())

let test_dpor_all_scenarios_clean () =
  List.iter
    (fun (sc : Scenario.t) ->
      let s =
        Runner.explore ~scenario:sc ~strategy:Runner.Dpor ~budget:500 ()
      in
      Alcotest.(check bool)
        (sc.Scenario.sc_name ^ ": exhaustive within budget")
        true s.Runner.complete;
      Alcotest.(check (list string))
        (sc.Scenario.sc_name ^ ": no violations")
        []
        (List.map
           (fun v -> v.Runner.v_kind ^ ": " ^ v.Runner.v_detail)
           s.Runner.violations))
    Scenario.all

let test_random_schedules_stay_clean () =
  (* Twenty random schedules of each clean scenario: correctness must
     not depend on the native tie order. *)
  List.iter
    (fun (sc : Scenario.t) ->
      let s =
        Runner.explore ~scenario:sc ~strategy:(Runner.Rand 11) ~budget:20 ()
      in
      Alcotest.(check (list string))
        (sc.Scenario.sc_name ^ ": random schedules clean")
        []
        (List.map (fun v -> v.Runner.v_kind) s.Runner.violations))
    Scenario.all

(* ---------- mutation detection + replay --------------------------------- *)

(* One run of [sc] under a recorded choice list. *)
let replay ?mutate sc choices =
  Runner.explore ~scenario:sc ?mutate ~strategy:(Runner.Replay choices)
    ~budget:1

(* Which scenario exposes which PR 5 mutation (the sanitizer catches all
   three; the oracle additionally catches the two whose staleness is
   user-visible). *)
let detections =
  [
    ("skip_writeback", "handoff");
    ("skip_open_inval", "reopen");
    ("drop_inval", "dirrace");
  ]

let test_mutations_detected () =
  List.iter
    (fun (mutation, scenario) ->
      let s =
        Runner.explore
          ~scenario:(Scenario.find scenario)
          ~mutate:mutation ~strategy:Runner.Dpor ~budget:200 ()
      in
      match s.Runner.violations with
      | [] ->
          Alcotest.failf "%s on %s: mutation escaped exploration" mutation
            scenario
      | v :: _ ->
          (* The replay recipe must reproduce the violation exactly. *)
          let r =
            replay ~mutate:mutation (Scenario.find scenario) v.Runner.v_choices
              ()
          in
          (match r.Runner.violations with
          | [] ->
              Alcotest.failf "%s on %s: replay %s lost the violation"
                mutation scenario
                (String.concat ","
                   (List.map string_of_int v.Runner.v_choices))
          | rv :: _ ->
              Alcotest.(check string)
                (mutation ^ ": replay reproduces the same kind")
                v.Runner.v_kind rv.Runner.v_kind))
    detections

let test_pct_detects_within_budget () =
  (* The CI smoke's budgeted randomized pass: PCT with a fixed seed must
     catch the writeback mutation within 50 schedules. *)
  let s =
    Runner.explore
      ~scenario:(Scenario.find "handoff")
      ~mutate:"skip_writeback" ~strategy:(Runner.Pct 7) ~budget:50 ()
  in
  Alcotest.(check bool) "violation found" true (s.Runner.violations <> [])

let test_unknown_mutation_rejected () =
  match
    Runner.explore
      ~scenario:(Scenario.find "handoff")
      ~mutate:"bogus" ~strategy:Runner.Deterministic ~budget:1 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown mutation accepted"

let test_bad_arguments_refused () =
  let handoff = Scenario.find "handoff" in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Runner.stats) -> Alcotest.failf "%s accepted" what
  in
  (* handoff's first tie has fewer than 99 candidates, and no tie has a
     candidate -1. *)
  refused "replay ordinal 99" (replay handoff [ 99 ]);
  refused "replay ordinal -1" (replay handoff [ 0; -1 ]);
  refused "budget 0"
    (Runner.explore ~scenario:handoff ~strategy:Runner.Dpor ~budget:0);
  (* Ordinals past the end of a recipe still mean 0. *)
  stats_eq "a recipe's end"
    (replay handoff [ 0 ] ())
    (replay handoff (List.init 20 (fun _ -> 0)) ())

(* ---------- suites ------------------------------------------------------ *)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "explore.oracle",
      [
        tc "close-to-open edge enforced" `Quick test_oracle_close_to_open;
        tc "concurrent ops are free" `Quick test_oracle_concurrent_freedom;
        tc "model errors checked" `Quick test_oracle_model_errors;
        tc "model corners pinned" `Quick test_model_corners;
      ] );
    ( "explore.strategies",
      [
        tc "deterministic is stable" `Quick test_deterministic_stable;
        tc "DPOR exhaustive + golden tree size" `Quick
          test_dpor_exhaustive_stable;
        tc "DPOR leaves every scenario clean" `Quick
          test_dpor_all_scenarios_clean;
        tc "random schedules stay clean" `Quick
          test_random_schedules_stay_clean;
      ] );
    ( "explore.detection",
      [
        tc "every PR 5 mutation caught + replayed" `Quick
          test_mutations_detected;
        tc "PCT catches writeback within budget" `Quick
          test_pct_detects_within_budget;
        tc "unknown mutation rejected" `Quick test_unknown_mutation_rejected;
        tc "bad replay ordinals and budgets refused" `Quick
          test_bad_arguments_refused;
      ] );
  ]
