(* The repository benchmark: three seeded, closed-loop workloads on the
   paper's 40-core timeshare machine (Config.default), measured on the
   simulated machine (cycles around every POSIX call) and on the host
   that simulates it (process CPU time, GC counters).

     main.exe --workload mail|tree_walk|data_rw --seed N --seconds S
              --trace 0|1 [--out DIR]

   The same seeded simulation is repeated about S seconds' worth of
   times (at least three). The host time of the timed region is the best
   of each of its slices over the repetitions, summed; set-up time is the
   median repetition; both are scaled to a fixed host speed measured
   beside the repetitions (Calib). Every simulated and count-type metric must agree
   exactly between repetitions. --trace 1 adds one traced repetition,
   which must agree too and gives the per-layer trace shares, runs the
   layer micro-benchmarks and prints the per-layer metrics instead of
   the end-to-end ones. The last line of stdout is one JSON object. *)

(* Each workload with the wall time one repetition takes on a 2-vCPU
   x86-64 host, which turns --seconds into a repetition count that does
   not depend on how fast the host happens to be running. *)
let workload name ~seed =
  match name with
  | "mail" -> (Gen.mail ~seed ~workers:40 ~deliveries:300 ~aged:100, 2.4)
  | "tree_walk" ->
      ( Gen.tree_walk ~seed ~workers:40 ~subtrees:16 ~dirs_per:8 ~files_per:60 ~reads:60,
        1.8 )
  | "data_rw" ->
      ( Gen.data_rw ~seed ~workers:40 ~files:6 ~file_blocks:64 ~shared:2 ~shared_blocks:4
          ~steps:400,
        2.0 )
  | _ -> failwith ("unknown workload " ^ name)

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends ".n" || ends "peak_pending" || ends "peak_queue" || ends "major_gcs" then "count"
  else if ends "_cycles" then "cycles"
  else if ends "words_per_op" then "words/op"
  else if ends "_per_op" then "count/op"
  else if ends ".ns" then "ns"
  else if ends ".words" then "words"
  else if ends "_share" || ends "_ratio" || String.starts_with ~prefix:"core.util" name then
    "fraction"
  else "ratio"

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let json_metrics l =
  List.map
    (fun (name, v, u) ->
      let v = if Float.is_finite v then v else 0.0 in
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
    l
  |> String.concat ", "

let write_spans path (r : Runner.rep) =
  let oc = open_out path in
  output_string oc "call\tworker\tstart_cycles\tend_cycles\n";
  let s = r.spans in
  let i = ref 0 in
  while !i < Array.length s do
    Printf.fprintf oc "%s\t%d\t%d\t%d\n" Runner.call_names.(s.(!i)) s.(!i + 1) s.(!i + 2)
      s.(!i + 3);
    i := !i + 4
  done;
  close_out oc

(* First metric on which two repetitions disagree, if any. *)
let diverges (a : Runner.rep) (b : Runner.rep) =
  List.find_map
    (fun (name, v) ->
      let w = List.assoc name b.det in
      if Float.equal v w then None else Some (Printf.sprintf "%s: %.17g vs %.17g" name v w))
    a.det

(* Sum over the pieces of a timing of the best time of each piece: the
   pieces of every repetition do the same work. *)
let best_sum runs =
  let sum = Array.fold_left ( +. ) 0.0 in
  let k = Array.length (List.hd runs) in
  if List.exists (fun a -> Array.length a <> k) runs then
    List.fold_left (fun m a -> min m (sum a)) infinity runs
  else sum (Array.init k (fun i -> List.fold_left (fun m a -> min m a.(i)) infinity runs))

(* The reference simulation's best time (Calib.pass) on a 2-vCPU x86-64
   host at its fastest: host CPU times are reported as if the host ran at
   that speed. *)
let reference_s = 0.15

let main ~wname ~seed ~seconds ~trace ~out =
  let wl, rep_seconds = workload wname ~seed in
  let n = max 3 (int_of_float (seconds /. rep_seconds)) in
  let passes = ref [] in
  let repetition () =
    passes := Calib.pass () :: !passes;
    Runner.run ~traced:false wl
  in
  let untraced = List.init n (fun _ -> repetition ()) in
  let first = List.hd untraced in
  (* Peak heap over input generation, setup and the timed region of the
     first repetition: later repetitions only add the fragmentation of
     running again, and verification is the benchmark's own work. *)
  let peak_mb = float_of_int (first.peak_words * (Sys.word_size / 8)) /. 1048576.0 in
  (* Host CPU seconds are reported at the reference speed. *)
  let ref_best = best_sum !passes in
  let scale = reference_s /. ref_best in
  let total (r : Runner.rep) = Array.fold_left ( +. ) 0.0 r.slices in
  let min_total = List.fold_left (fun m r -> min m (total r)) infinity untraced in
  let best_cpu = best_sum (List.map (fun (r : Runner.rep) -> r.slices) untraced) in
  let traced = if trace then Some (Runner.run ~traced:true wl) else None in
  let problems =
    List.filter_map
      (fun (r : Runner.rep) ->
        Option.map (fun d -> "repetitions differ on " ^ d) (diverges first r))
      untraced
    @ (match traced with
      | Some t -> Option.to_list (Option.map (fun d -> "traced run differs on " ^ d) (diverges first t))
      | None -> [])
  in
  let all = untraced @ Option.to_list traced in
  let sum f = List.fold_left (fun n r -> n + f r) 0 all in
  let attempted = sum (fun r -> r.Runner.attempted) in
  let failed = sum (fun r -> r.Runner.failed + r.Runner.bad) in
  let det name = List.assoc name first.det in
  let e2e =
    [
      ("sim_ops_per_s", det "sim_ops_per_s", "ops/sim-s");
      ("sim_p50_cycles", det "sim_p50_cycles", "cycles");
      ("sim_p99_cycles", det "sim_p99_cycles", "cycles");
      ("host_ops_per_s", float_of_int first.ops /. (best_cpu *. scale), "ops/cpu-s");
      ("host_peak_mb", peak_mb, "MiB");
      ("setup_s", scale *. median (List.map (fun r -> r.Runner.setup_cpu) untraced), "s");
    ]
  in
  let fail_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  Printf.printf "workload %s, seed %d: %d repetitions, %d POSIX calls each, 40 cores\n"
    wname seed (List.length untraced) first.ops;
  Printf.printf "  (simulated model unvalidated for these workloads: no error figure)\n";
  List.iteri
    (fun i (r : Runner.rep) ->
      Printf.printf "  repetition %d: setup %.3f cpu-s, timed region %.3f cpu-s\n" (i + 1)
        r.setup_cpu (total r))
    untraced;
  Printf.printf
    "  timed region best %.3f cpu-s; reference %.4f cpu-s, so host times below are \
     scaled by %.3f\n"
    best_cpu ref_best scale;
  List.iter (fun (n, v, u) -> Printf.printf "  %-16s %14.6g %s\n" n v u) e2e;
  Printf.printf "  %-16s %14.6g fraction  (%d failed of %d attempted)\n" "fail_ratio"
    fail_ratio failed attempted;
  let layer =
    match traced with
    | None -> []
    | Some t ->
        let last = List.nth untraced (List.length untraced - 1) in
        let micro =
          List.concat_map
            (fun (n, ns, words) -> [ ("micro." ^ n ^ ".ns", ns); ("micro." ^ n ^ ".words", words) ])
            (Micro.run ())
        in
        List.filter (fun (n, _) -> not (String.starts_with ~prefix:"sim_" n)) first.det
        @ last.host
        @ [ ("host.trace_overhead", total t /. min_total) ]
        @ t.shares @ micro
        |> List.map (fun (n, v) -> (n, v, unit_of n))
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) layer;
  (match (traced, out) with
  | Some t, Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      write_spans (Filename.concat dir (Printf.sprintf "%s-%d.spans.tsv" wname seed)) t
  | _ -> ());
  List.iter (fun p -> Printf.eprintf "perfbench: %s\n" p) problems;
  let correct = failed = 0 && problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (json_metrics (if trace then layer else e2e));
  if not correct then exit 1

let () =
  let wname = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string wname, "mail | tree_walk | data_rw");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--out", Arg.String (fun d -> out := Some d), "directory for the traced run's spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !wname [ "mail"; "tree_walk"; "data_rw" ]) then begin
    prerr_endline ("perfbench: unknown workload " ^ !wname);
    exit 2
  end;
  main ~wname:!wname ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
