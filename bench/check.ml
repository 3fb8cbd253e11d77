(* bench/check.exe CURRENT BASELINE [TOLERANCE_PCT]

   Checks a fresh bench JSON (bench/main.exe -- --json). First the
   structure of CURRENT — the schema, a "timeseries" object and a
   "blame" array with their required keys, a "knee" object on exactly
   the workloads with "knee_cycles" — so a dropped section fails rather
   than silently shrinking the artifact. Then the gate: each gated
   top-level key of each baseline workload must be in CURRENT (a
   skipped key would let a broken benchmark pass) and must not have
   regressed by more than TOLERANCE_PCT (default 10%). Extra workloads
   and keys are fine; a new metric is gated once it is in the baseline.

   Exit 0 on a pass; 1 on a regression, a missing key or a malformed
   CURRENT; 2 on bad usage or a file that does not parse as bench JSON. *)

module Json = Hare_stats.Json

(* Metric keys gated against the baseline, with the direction that
   counts as a regression. [`Lower] metrics (simulated cycles, fiber
   counts) are deterministic functions of the seed, so the tolerance
   applies as-is. [`Higher] host wall-clock throughput swings by ±25% on
   a shared CI runner, so it gets a band of at least 40%: the gate trips
   on a genuine engine slowdown, not on scheduler noise. *)
let gated =
  [
    ("simulated_cycles", `Lower); ("p99_cycles", `Lower);
    ("peak_live_fibers", `Lower); ("sim_ops_per_sec", `Higher);
    (* Sharding balance: max/mean per-server ops; a consistent-hash
       regression shows up as one server soaking up the ring. *)
    ("imbalance", `Lower);
    (* Saturation knee of the overload rows (PR 9): the cycle at which
       p99 latency leaves the flat regime. Deterministic, but windowed at
       8x the sampling grid, so a one-window shift is a large relative
       move: `Higher (an earlier knee is the regression) for the band. *)
    ("knee_cycles", `Higher);
  ]

let die code =
  Printf.ksprintf (fun msg -> prerr_endline ("check: " ^ msg); exit code)

(* A bench JSON file and its workload objects. *)
let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error (off, what) -> die 2 "%s: byte %d: %s" path off what
  | Ok doc -> (
      match Json.member "workloads" doc with
      | Some (Json.Array ws) -> (doc, ws)
      | _ -> die 2 "%s: no \"workloads\" array" path)

let name_of path w =
  match Json.member "name" w with
  | Some (Json.String n) -> n
  | _ -> die 2 "%s: a workload without a \"name\"" path

(* Structural checks on the current run; each failure exits 1. *)
let validate path (doc, ws) =
  let bad fmt = die 1 ("%s: " ^^ fmt) path in
  let has keys v = List.for_all (fun k -> Json.member k v <> None) keys in
  let every key what fields ok =
    match List.filter_map (Json.member key) ws with
    | [] -> bad "no workload carries a %S %s" key what
    | l ->
        if not (List.for_all (ok (has fields)) l) then
          bad "a %S %s lacks one of %s" key what (String.concat ", " fields)
  in
  if Json.member "schema" doc <> Some (Json.String "hare-bench-pr2/1") then
    bad "not a hare bench JSON (no \"hare-bench-pr2/1\" schema)";
  every "timeseries" "object" [ "interval"; "samples"; "gauges" ] Fun.id;
  every "blame" "array" [ "class"; "bucket"; "bucket_share"; "qdepth_max" ]
    (fun entry_ok -> function Json.Array l -> List.for_all entry_ok l | _ -> false);
  List.iter
    (fun w ->
      if has [ "knee_cycles" ] w <> has [ "knee" ] w then
        bad "%s: \"knee_cycles\" without \"knee\", or the reverse" (name_of path w))
    ws

(* Gated metrics as ("NAME/KEY", (KEY, value)), in file order. *)
let metrics path (_, ws) =
  let gate name (key, v) =
    match v with
    | _ when not (List.mem_assoc key gated) -> None
    | Json.Int i -> Some (name ^ "/" ^ key, (key, float_of_int i))
    | Json.Float f -> Some (name ^ "/" ^ key, (key, f))
    | _ -> die 2 "%s: %s/%s is not a number" path name key
  in
  List.concat_map
    (function
      | Json.Object kvs as w -> List.filter_map (gate (name_of path w)) kvs
      | _ -> die 2 "%s: a workload that is not an object" path)
    ws

let () =
  let current, baseline, tolerance =
    match Array.to_list Sys.argv with
    | [ _; c; b ] -> (c, b, 10.0)
    | [ _; c; b; t ] -> (c, b, float_of_string t)
    | _ ->
        prerr_endline "usage: check.exe CURRENT BASELINE [TOLERANCE_PCT]";
        exit 2
  in
  let cur_doc = load current in
  validate current cur_doc;
  let cur = metrics current cur_doc and base = metrics baseline (load baseline) in
  if base = [] then die 2 "no workloads found in baseline %s" baseline;
  let verdict (name, (key, bcy)) =
    match List.assoc_opt name cur with
    | None ->
        Printf.printf
          "%-36s MISSING: baseline key %S not present in current run %s\n"
          name name current;
        `Missing name
    | Some (_, ccy) when bcy = 0.0 ->
        Printf.printf "%-36s %14.0f -> %14.0f  (zero baseline, skipped)\n" name
          bcy ccy;
        `Ok
    | Some (_, ccy) ->
        let delta = 100. *. (ccy -. bcy) /. bcy in
        let regressed =
          match List.assoc key gated with
          | `Higher -> delta < -.Float.max 40.0 tolerance
          | `Lower -> delta > tolerance
        in
        Printf.printf "%-36s %14.0f -> %14.0f  %+6.2f%%  %s\n" name bcy ccy
          delta
          (if regressed then "REGRESSED" else "ok");
        if regressed then `Regressed else `Ok
  in
  let verdicts = List.map verdict base in
  let missing =
    List.filter_map (function `Missing n -> Some n | _ -> None) verdicts
  in
  let compared = List.length base - List.length missing in
  if compared = 0 then
    die 2 "no common workloads between %s and %s" current baseline;
  if missing <> [] then
    Printf.printf "FAIL: %d baseline workload(s) missing from current run: %s\n"
      (List.length missing) (String.concat ", " missing);
  if missing <> [] || List.mem `Regressed verdicts then begin
    Printf.printf "FAIL: regression or missing key beyond %.0f%% tolerance\n"
      tolerance;
    exit 1
  end;
  Printf.printf "PASS: %d metrics within %.0f%% of baseline\n" compared
    tolerance
