(* overload: an open-loop arrival process for exercising the PR-6
   overload-control plane. Each worker issues a paced stream of small
   mail-style operations — deliver (create/write/close), read back, stat,
   unlink — with seeded-jittered inter-arrival gaps, independent of
   completion times. Run near or past saturation, completions lag
   arrivals and the control plane (credits, deadlines, retry budgets,
   breakers, sheds) decides what degrades; the counters below report how
   gracefully.

   Unlike the closed-loop workloads, errors are part of the measurement:
   EBUSY (load shed) and EIO (give-up or breaker fast-fail) are counted,
   not raised. Goodput = ok / elapsed. *)

module Api = Hare_api.Api
module Config = Hare_config.Config
open Hare_proto

(* Mean inter-arrival gap per worker, in cycles; saturates a Split 1
   machine at a few workers. *)
let default_period = 12_000

let iters ~scale = 120 * scale

let msg_bytes = 512

type counters = {
  mutable sent : int;
  mutable ok : int;
  mutable shed : int;
  mutable fast_fail : int;
  mutable skipped : int;
}

let setup (api : 'p Api.t) p ~nprocs ~scale:_ =
  api.Api.mkdir p ~dist:false "/overload";
  for idx = 0 to nprocs - 1 do
    api.Api.mkdir p ~dist:false (Printf.sprintf "/overload/w%d" idx)
  done

let attempt c f =
  match f () with
  | () -> c.ok <- c.ok + 1
  | exception Errno.Error (Errno.EBUSY, _) -> c.shed <- c.shed + 1
  | exception Errno.Error (Errno.ENOENT, _) -> c.skipped <- c.skipped + 1
  | exception Errno.Error (_, _) -> c.fast_fail <- c.fast_fail + 1

let worker ~period c (api : 'p Api.t) p ~idx ~nprocs:_ ~scale =
  let n = iters ~scale in
  let dir = Printf.sprintf "/overload/w%d" idx in
  let body = Tree.file_data msg_bytes idx in
  let path i = Printf.sprintf "%s/m%05d" dir i in
  let deliver i () =
    let fd = api.Api.openf p (path i) Types.flags_w in
    Api.write_all api p fd body;
    api.Api.close p fd
  in
  let read_back i () =
    let fd = api.Api.openf p (path i) Types.flags_r in
    ignore (Api.read_to_eof api p fd);
    api.Api.close p fd
  in
  (* Open-loop pacing: the next arrival time advances by a seeded
     jittered gap (mean ~[period]) regardless of how long the previous
     operation took. When service lags, sleep_until returns immediately
     and the backlog expresses itself as server queue depth. *)
  let gap () = (period / 2) + 1 + api.Api.random p period in
  let next = ref (api.Api.now_cycles p) in
  for i = 1 to n do
    next := Int64.add !next (Int64.of_int (gap ()));
    api.Api.sleep_until p !next;
    c.sent <- c.sent + 1;
    match i mod 8 with
    | 0 | 1 | 2 | 3 -> attempt c (deliver i)
    | 4 | 5 ->
        (* read back a recent delivery (i-4 lands on a deliver arm;
           the very first cycle reads a never-written path and counts
           as skipped) *)
        attempt c (read_back (i - 4))
    | 6 -> attempt c (fun () -> ignore (api.Api.stat p (path (i - 6))))
    | _ -> attempt c (fun () -> api.Api.unlink p (path (i - 7)))
  done

let make ?(period = default_period) () =
  let c = { sent = 0; ok = 0; shed = 0; fast_fail = 0; skipped = 0 } in
  let spec : Spec.t =
    {
      name = "overload";
      mode = Spec.Workers;
      exec_policy = Config.Round_robin;
      uses_dist = false;
      setup;
      worker =
        (fun api p ~idx ~nprocs ~scale -> worker ~period c api p ~idx ~nprocs ~scale);
      programs = Spec.no_programs;
      ops = (fun ~nprocs ~scale -> nprocs * iters ~scale);
    }
  in
  (spec, c)

let spec = fst (make ())

let print ~period ~seconds c =
  Printf.printf
    "  mean period %d cycles: sent %d | ok %d | shed %d | fast-fail %d | \
     skipped %d\n"
    period c.sent c.ok c.shed c.fast_fail c.skipped;
  if seconds > 0. && c.sent > 0 then
    Printf.printf "  goodput %.0f ops/s of %.0f offered (%.1f%% completed)\n"
      (float_of_int c.ok /. seconds)
      (float_of_int c.sent /. seconds)
      (100. *. float_of_int c.ok /. float_of_int c.sent)

let to_json c robust =
  let module R = Hare_stats.Robust in
  let rb k = R.get robust k in
  Hare_stats.Json.Object
    (List.map
       (fun (k, v) -> (k, Hare_stats.Json.Int v))
       [ ("sent", c.sent); ("ok", c.ok); ("shed", c.shed); ("fast_fail", c.fast_fail);
         ("skipped", c.skipped); ("retries", rb R.retries); ("giveups", rb R.giveups);
         ("shed_load", rb R.shed_load); ("shed_expired", rb R.shed_expired);
         ("flow_blocks", rb R.flow_blocks); ("budget_denied", rb R.budget_denied);
         ("breaker_opens", rb R.breaker_opens);
         ("breaker_half_opens", rb R.breaker_half_opens);
         ("breaker_closes", rb R.breaker_closes) ])

type preset = { config : Config.t; workers : int; period : int }

let preset (c : Config.t) =
  {
    config =
      {
        c with
        Config.placement = Config.Split 1;
        rpc_deadline = 60_000;
        rpc_retries = 6;
        rpc_deadline_max = 240_000;
        deadline_propagation = true;
        mailbox_capacity = 24;
        retry_budget = 12;
        breaker_threshold = 6;
        breaker_cooldown = 150_000;
        shed_watermark = 8;
      };
    (* Many more workers than app cores: arrivals keep landing while
       earlier requests are still queued, so the server queue builds
       depth and the watermark/credit/deadline machinery engages. *)
    workers = 3 * c.Config.ncores;
    (* ~2x the single server core's service rate at 24 workers *)
    period = 30_000;
  }
