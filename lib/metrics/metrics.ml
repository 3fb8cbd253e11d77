(* Continuous time-series telemetry (PR 9).

   A registry of named gauges — closures reading live machine state —
   sampled on a fixed simulated-cycle grid, driven by the observer bus's
   step events. Everything here is pure host-side bookkeeping: a sample
   reads each gauge once and stores the values in fixed-capacity ring
   buffers; nothing charges cycles, schedules events, or draws from an
   RNG, so a sampled run is bit-identical to an unsampled one (asserted
   in test/test_obs.ml).

   All gauges share one stamp ring: every sample reads every gauge, so
   per-gauge value rings rotate in lockstep with the stamps. When the
   ring fills, the oldest sample is overwritten and [dropped] counts it
   — the most recent window always survives, matching the trace ring's
   drop-oldest policy. *)

module Obs = Hare_sim.Obs

type gauge = {
  g_name : string;
  g_read : unit -> int;
  mutable g_vals : int array;  (* ring of sampled values, [cap] slots *)
}

type t = {
  cap : int;
  interval : int;  (* sampling grid in cycles, for reporting *)
  mutable gauges : gauge array;
  mutable ngauges : int;
  times : int array;  (* shared ring of sample stamps *)
  mutable head : int;  (* index of the oldest sample when full *)
  mutable len : int;
  mutable dropped : int;  (* samples overwritten by ring rotation *)
  mutable samples : int;  (* samples ever taken *)
  mutable bus : Obs.t option;  (* where samples are published as counters *)
  mutable track_base : int;  (* counter track of gauge 0 *)
  mutable next_due : int;  (* next grid stamp to sample *)
}

let create ?(cap = 1024) ~interval () =
  if cap <= 0 then invalid_arg "Metrics.create: cap must be positive";
  if interval <= 0 then invalid_arg "Metrics.create: interval must be positive";
  {
    cap;
    interval;
    gauges = [||];
    ngauges = 0;
    times = Array.make cap 0;
    head = 0;
    len = 0;
    dropped = 0;
    samples = 0;
    bus = None;
    track_base = 0;
    next_due = max_int;
  }

let interval t = t.interval

let ngauges t = t.ngauges

let samples t = t.samples

let dropped t = t.dropped

let register t ~name read =
  if t.samples > 0 then
    invalid_arg "Metrics.register: gauges must be registered before sampling";
  let g = { g_name = name; g_read = read; g_vals = Array.make t.cap 0 } in
  let n = Array.length t.gauges in
  if t.ngauges = n then begin
    let n' = if n = 0 then 16 else n * 2 in
    let gauges' = Array.make n' g in
    Array.blit t.gauges 0 gauges' 0 n;
    t.gauges <- gauges'
  end;
  t.gauges.(t.ngauges) <- g;
  t.ngauges <- t.ngauges + 1

let sample t ~now =
  let i =
    if t.len < t.cap then begin
      let i = t.head + t.len in
      let i = if i >= t.cap then i - t.cap else i in
      t.len <- t.len + 1;
      i
    end
    else begin
      let i = t.head in
      let h = t.head + 1 in
      t.head <- (if h = t.cap then 0 else h);
      t.dropped <- t.dropped + 1;
      i
    end
  in
  t.times.(i) <- Int64.to_int now;
  for gi = 0 to t.ngauges - 1 do
    let g = Array.unsafe_get t.gauges gi in
    let v = g.g_read () in
    Array.unsafe_set g.g_vals i v;
    match t.bus with
    | Some o when Obs.on o Obs.marks ->
        let track = t.track_base + gi in
        Obs.emit o (Counter { name = g.g_name; track; ts = Int64.to_int now; value = v })
    | _ -> ()
  done;
  t.samples <- t.samples + 1

(* One sample per engine step that reaches or crosses the grid, stamped
   at the latest grid point due: a long quiet gap (no events) yields no
   intermediate samples — the gauges could not have changed while
   nothing ran. The step event fires before the step's effects land, so
   a sample at grid stamp g reflects every event strictly before g. *)
let attach t bus ~track_base =
  t.bus <- Some bus;
  t.track_base <- track_base;
  (* First sample one full interval after attachment (boot state at
     time zero is all-idle and uninteresting). *)
  t.next_due <- Obs.now bus + t.interval;
  Obs.subscribe bus Obs.steps (function
    | Step { time; _ } when time >= t.next_due ->
        let stamp = t.next_due + ((time - t.next_due) / t.interval * t.interval) in
        t.next_due <- stamp + t.interval;
        sample t ~now:(Int64.of_int stamp)
    | _ -> ())

(* Chronological (stamp, value) points currently held for gauge [g]. *)
let points t g =
  List.init t.len (fun k ->
      let i = t.head + k in
      let i = if i >= t.cap then i - t.cap else i in
      (t.times.(i), g.g_vals.(i)))

let series t =
  Array.to_list (Array.sub t.gauges 0 t.ngauges)
  |> List.map (fun g -> (g.g_name, points t g))

type summary = {
  s_name : string;
  s_n : int;
  s_min : int;
  s_max : int;
  s_mean : float;
  s_last : int;
}

let summaries t =
  Array.to_list (Array.sub t.gauges 0 t.ngauges)
  |> List.map (fun g ->
         if t.len = 0 then
           { s_name = g.g_name; s_n = 0; s_min = 0; s_max = 0; s_mean = 0.0;
             s_last = 0 }
         else begin
           let mn = ref max_int and mx = ref min_int and sum = ref 0 in
           let last = ref 0 in
           for k = 0 to t.len - 1 do
             let i = t.head + k in
             let i = if i >= t.cap then i - t.cap else i in
             let v = g.g_vals.(i) in
             if v < !mn then mn := v;
             if v > !mx then mx := v;
             sum := !sum + v;
             last := v
           done;
           {
             s_name = g.g_name;
             s_n = t.len;
             s_min = !mn;
             s_max = !mx;
             s_mean = float_of_int !sum /. float_of_int t.len;
             s_last = !last;
           }
         end)
