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
      ev 0 (Oracle.Open { path = "/a"; create = true }) (Oracle.Ok_handle 1)
        0L 10L;
      ev 0 (Oracle.Write { h = 1; data = "x" }) (Oracle.Ok_int 1) 20L 30L;
      ev 0 (Oracle.Close { h = 1 }) Oracle.Ok_unit 40L 50L;
      ev 1 (Oracle.Open { path = "/a"; create = false }) (Oracle.Ok_handle 1)
        60L 70L;
      ev 1 (Oracle.Read { h = 1 }) (Oracle.Ok_data "x") 80L 90L;
      ev 1 (Oracle.Close { h = 1 }) Oracle.Ok_unit 92L 99L;
    ]
  in
  expect_ok "fresh read after close" h;
  (* The same history returning stale data has no witness. *)
  let stale =
    List.map
      (fun e ->
        match e.Oracle.e_op with
        | Oracle.Read _ -> { e with Oracle.e_result = Oracle.Ok_data "" }
        | _ -> e)
      h
  in
  expect_violation "stale read after close-to-open" stale

let test_oracle_concurrent_freedom () =
  (* A read overlapping the write in real time carries no edge: both the
     old and the new contents are legal. *)
  let base read_result =
    [
      ev 0 (Oracle.Open { path = "/a"; create = true }) (Oracle.Ok_handle 1)
        0L 10L;
      ev 0 (Oracle.Write { h = 1; data = "x" }) (Oracle.Ok_int 1) 20L 30L;
      ev 0 (Oracle.Close { h = 1 }) Oracle.Ok_unit 100L 110L;
      ev 1 (Oracle.Open { path = "/a"; create = false }) (Oracle.Ok_handle 1)
        12L 18L;
      ev 1 (Oracle.Read { h = 1 }) (Oracle.Ok_data read_result) 22L 40L;
    ]
  in
  expect_ok "concurrent read may see the write" (base "x");
  expect_ok "concurrent read may miss the write" (base "")

let test_oracle_model_errors () =
  (* Error results are checked against the model too. *)
  expect_ok "stat of nothing is ENOENT"
    [ ev 0 (Oracle.Stat { path = "/nope" }) (Oracle.Err Errno.ENOENT) 0L 10L ];
  expect_ok "close of nothing is EBADF"
    [ ev 0 (Oracle.Close { h = 9 }) (Oracle.Err Errno.EBADF) 0L 10L ];
  (* A stat invoked after the creating close completed must see the
     file; a recorded ENOENT is a violation. *)
  expect_violation "stat misses a closed create"
    [
      ev 0 (Oracle.Open { path = "/a"; create = true }) (Oracle.Ok_handle 1)
        0L 10L;
      ev 0 (Oracle.Close { h = 1 }) Oracle.Ok_unit 20L 30L;
      ev 1 (Oracle.Stat { path = "/a" }) (Oracle.Err Errno.ENOENT) 50L 60L;
    ]

(* The corners where the oracle's and the property tests' models used
   to disagree, pinned on the one model; the first one through the
   oracle too. *)
let test_model_corners () =
  let outcome st op =
    match Model.apply st op with Ok _ -> "ok" | Error e -> Errno.to_string e
  in
  let st =
    match
      Model.apply
        (Model.init [ "/d"; "/d/s"; "/e" ])
        (Model.Open { path = "/f"; create = true })
    with
    | Ok (_, st) -> st
    | Error _ -> Alcotest.fail "create /f"
  in
  List.iter
    (fun (what, op, want) ->
      Alcotest.(check string) what want (outcome st op))
    [
      ("O_CREAT open of a directory", Model.Open { path = "/d"; create = true },
       "EISDIR");
      ("unlink of a directory", Model.Unlink "/d", "EISDIR");
      ("stat under a file", Model.Stat "/f/x", "ENOTDIR");
      ("create under a file", Model.Open { path = "/f/x"; create = true },
       "ENOTDIR");
      ("mkdir under a file", Model.Mkdir "/f/x", "ENOTDIR");
      ("create under a missing directory",
       Model.Open { path = "/x/y"; create = true }, "ENOENT");
      ("rmdir of a file", Model.Rmdir "/f", "ENOTDIR");
      ("rmdir of a non-empty directory", Model.Rmdir "/d", "ENOTEMPTY");
      ("rmdir of an empty directory", Model.Rmdir "/e", "ok");
    ];
  let creat_d result =
    [
      ev 0 (Oracle.Mkdir { path = "/d" }) Oracle.Ok_unit 0L 10L;
      ev 0 (Oracle.Open { path = "/d"; create = true }) result 20L 30L;
    ]
  in
  expect_ok "O_CREAT open of a directory is EISDIR"
    (creat_d (Oracle.Err Errno.EISDIR));
  expect_violation "O_CREAT open of a directory makes no file"
    (creat_d (Oracle.Ok_handle 0))

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
            Runner.replay
              ~scenario:(Scenario.find scenario)
              ~mutate:mutation v.Runner.v_choices ()
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
      ] );
  ]
