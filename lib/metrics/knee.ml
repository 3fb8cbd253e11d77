(* Knee detection over a latency time series (PR 9).

   The overload workload drives an open-loop arrival process; past
   saturation the queues (and with them p99) stop being flat and take
   off. The knee is the first sampling window whose p99 exceeds a
   threshold relative to the flat-regime baseline — the lowest judged
   p99 seen so far, not the immediately previous window, so a gradual
   climb (each window below [factor] times its neighbour but far above
   the flat floor) is still caught. This is the point the ROADMAP's
   "knee of the latency/throughput curve" ambition asks for, computed
   per machine size from the same root-span log the percentile report
   uses. Pure arithmetic over (t0, dur) pairs. *)

type t = {
  k_at : int;  (* start of the knee window, cycles *)
  k_window : int;  (* window width used, cycles *)
  k_before : int64;  (* flat-regime floor p99 (lowest pre-knee window) *)
  k_after : int64;  (* p99 of the knee window *)
  k_windows : int;  (* windows with enough samples to judge *)
}

let detect ?(factor = 1.5) ?(min_samples = 8) ~window spans =
  if window <= 0 then invalid_arg "Knee.detect: window must be positive";
  if not (factor > 1.0) then invalid_arg "Knee.detect: factor must exceed 1";
  match spans with
  | [] -> None
  | _ ->
      let hi =
        List.fold_left (fun acc (t0, _) -> max acc t0) 0 spans
      in
      let nwin = (hi / window) + 1 in
      let buckets = Array.make nwin [] in
      List.iter
        (fun (t0, dur) ->
          let w = t0 / window in
          if w >= 0 && w < nwin then
            buckets.(w) <- Int64.of_int dur :: buckets.(w))
        spans;
      (* Walk windows in time order; sparse windows (below [min_samples])
         yield no verdict and do not update the baseline. The baseline
         is the lowest judged p99 so far — the flat regime's floor. *)
      let floor = ref None in
      let judged = ref 0 in
      let knee = ref None in
      Array.iteri
        (fun w ds ->
          if !knee = None && List.length ds >= min_samples then begin
            incr judged;
            let d = Hare_stats.Latency.of_durations ds in
            (match !floor with
            | Some (p : int64) when p > 0L ->
                if
                  Int64.to_float d.Hare_stats.Latency.p99
                  > factor *. Int64.to_float p
                then
                  knee :=
                    Some
                      {
                        k_at = w * window;
                        k_window = window;
                        k_before = p;
                        k_after = d.Hare_stats.Latency.p99;
                        k_windows = !judged;
                      }
            | _ -> ());
            if !knee = None then
              match !floor with
              | Some p when p <= d.Hare_stats.Latency.p99 -> ()
              | _ -> floor := Some d.Hare_stats.Latency.p99
          end)
        buckets;
      !knee

let print = function
  | Some k ->
      Printf.printf
        "knee: p99 left the flat regime at cycle %d (window %d: %Ld -> %Ld \
         cycles over %d judged windows)\n"
        k.k_at k.k_window k.k_before k.k_after k.k_windows
  | None -> print_endline "knee: none (p99 stayed flat)"

let to_json k =
  let open Hare_stats.Json in
  Object
    [ ("window", Int k.k_window); ("p99_before", Int (Int64.to_int k.k_before));
      ("p99_after", Int (Int64.to_int k.k_after)); ("windows", Int k.k_windows) ]
