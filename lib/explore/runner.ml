(* Schedule exploration runner: strategies, sleep-set + persistent-set
   DPOR, and per-run violation judging. See runner.mli. *)

module Engine = Hare_sim.Engine
module Obs = Hare_sim.Obs
module Machine = Hare.Machine
module Check = Hare_check.Check

type strategy =
  | Deterministic
  | Dpor
  | Pct of int
  | Rand of int
  | Replay of int list

let strategy_name = function
  | Deterministic -> "deterministic"
  | Dpor -> "dpor"
  | Pct seed -> Printf.sprintf "pct:%d" seed
  | Rand seed -> Printf.sprintf "rand:%d" seed
  | Replay _ -> "replay"

type violation = { v_kind : string; v_detail : string; v_choices : int list }

type stats = {
  schedules : int;
  choice_points : int;
  max_depth : int;
  sleep_blocked : int;
  complete : bool;
  violations : violation list;
}

(* --- one execution -------------------------------------------------- *)

(* A sleeping step turned out to be the next event to run: the whole
   execution only reorders commuting events of an already-explored one.
   Abort; the machine is discarded. *)
exception Sleep_blocked

(* Executed-step log entry. The footprint starts from the action tag
   (which mailbox a delivery lands in; which fiber resumes) and grows
   with every shared object the event touches while running (the bus's
   mailbox and cache-line events, {!access_of}). Resume targets live in
   a negative namespace so they can never collide with the encoded
   access objects, which are all non-negative. *)
type step = {
  s_seq : int;
  s_time : int;
  mutable s_fp : int list;
  mutable s_opaque : bool;
}

(* Footprint objects live in one int space: mailbox uids map to odd
   ints, DRAM line keys to even ints, so the two families never
   collide. A clean eviction touches nothing another core can see. *)
let mailbox_obj uid = (uid lsl 1) lor 1

let access_of : Obs.event -> int option = function
  | Msg_enqueue { uid; _ } | Msg_dequeue { uid; _ } -> Some (mailbox_obj uid)
  | Cache_access { key; _ } | Cache_writeback { key; _ }
  | Cache_invalidate { key; _ } ->
      Some (key lsl 1)
  | _ -> None

let fp_of_tag tag =
  match Engine.tag_kind tag with
  | Engine.Opaque -> (true, [])
  | Engine.Resume fid -> (false, [ -(fid + 1) ])
  | Engine.Deliver uid ->
      (* A later enqueue into the delivered-to mailbox conflicts with
         the delivery itself. *)
      (false, [ mailbox_obj uid ])

let conflict a b =
  a.s_opaque || b.s_opaque
  || List.exists (fun o -> List.mem o b.s_fp) a.s_fp

(* A choice point hit during one execution. *)
type cpoint = {
  c_time : int;
  c_cands : (int * int) array;
  c_chosen : int; (* ordinal *)
  c_step : int; (* index into the step log of the chosen step *)
}

type exec = {
  x_steps : step array;
  x_points : cpoint list; (* in execution order *)
  x_choices : int list; (* ordinal per choice point, in order *)
  x_blocked : bool;
  x_violations : violation list;
}

(* Sleep entries carry the sleeping step's footprint so a conflicting
   executed step can wake (drop) it. *)
type sleeper = { sl_seq : int; sl_fp : int list; sl_opaque : bool }

let wakes st sl =
  st.s_opaque || sl.sl_opaque
  || List.exists (fun o -> List.mem o sl.sl_fp) st.s_fp

(* Run one schedule of [scenario].

   [pick ~depth ~time cands] resolves each tie (depth counts choice
   points hit so far). [sleep_at depth] gives the sleep entries to arm
   when passing choice point [depth] — non-empty only under DPOR, where
   they are the siblings already explored at that tree node. *)
let run_one ~scenario ~mutate ~pick ~sleep_at () =
  Scenario.with_mutation mutate @@ fun () ->
  let built = scenario.Scenario.sc_build () in
  let m = built.Scenario.b_machine in
  let eng = Machine.engine m in
  let steps = ref [] (* reversed *) in
  let nsteps = ref 0 in
  let points = ref [] (* reversed *) in
  let choices = ref [] (* reversed *) in
  let depth = ref 0 in
  let live_sleep = ref [] in
  let cur = ref None in
  let ex_choose ~time cands =
    let ord = pick ~depth:!depth ~time cands in
    let ord = if ord < 0 || ord >= Array.length cands then 0 else ord in
    points :=
      { c_time = time; c_cands = cands; c_chosen = ord; c_step = !nsteps }
      :: !points;
    choices := ord :: !choices;
    live_sleep := sleep_at !depth @ !live_sleep;
    incr depth;
    ord
  in
  let ex_step ~time ~seq ~tag =
    (* The previous step's footprint is complete now: wake any sleeper
       it conflicts with, then see whether the step about to run was
       itself asleep. *)
    (match !cur with
    | Some prev -> live_sleep := List.filter (fun sl -> not (wakes prev sl)) !live_sleep
    | None -> ());
    if List.exists (fun sl -> sl.sl_seq = seq) !live_sleep then
      raise Sleep_blocked;
    let opaque, fp = fp_of_tag tag in
    let st = { s_seq = seq; s_time = time; s_fp = fp; s_opaque = opaque } in
    steps := st :: !steps;
    incr nsteps;
    cur := Some st
  in
  let observe (ev : Obs.event) =
    match (ev, !cur) with
    | Step { time; seq; tag }, _ -> ex_step ~time ~seq ~tag
    | _, Some st -> (
        match access_of ev with
        | Some o when not (List.mem o st.s_fp) -> st.s_fp <- o :: st.s_fp
        | _ -> ())
    | _, None -> ()
  in
  (* The machine is discarded after this run, so neither hook is
     detached. *)
  Obs.subscribe (Engine.obs eng) Obs.(steps lor msgs lor cache) observe;
  Engine.set_explorer eng ex_choose;
  let outcome =
    match Machine.run m with
    | () -> Ok ()
    | exception Sleep_blocked -> Error `Blocked
    | exception Hare_sim.Engine.Fiber_failure (_, e) -> Error (`Crash e)
  in
  let choices = List.rev !choices in
  let vio kind detail = { v_kind = kind; v_detail = detail; v_choices = choices } in
  let violations =
    match outcome with
    | Error `Blocked -> []
    | Error (`Crash e) ->
        [ vio "crash" ("fiber raised: " ^ Printexc.to_string e) ]
    | Ok () ->
        let vs = ref [] in
        (match Machine.exit_status m built.Scenario.b_init with
        | Some 0 -> ()
        | st ->
            let d =
              match st with
              | Some n -> Printf.sprintf "init exited %d" n
              | None -> "init never exited"
            in
            vs := vio "crash" d :: !vs);
        (match Machine.check m with
        | Some chk when Check.total_violations chk > 0 ->
            let first =
              match Check.violations chk with
              | v :: _ -> Format.asprintf "%a" Check.pp_violation v
              | [] -> "(details capped)"
            in
            vs :=
              vio "sanitizer"
                (Printf.sprintf "%d sanitizer violation(s); first: %s"
                   (Check.total_violations chk) first)
              :: !vs
        | _ -> ());
        (match Oracle.check (built.Scenario.b_history ()) with
        | Ok () -> ()
        | Error msg -> vs := vio "linearizability" msg :: !vs);
        List.rev !vs
  in
  {
    x_steps = Array.of_list (List.rev !steps);
    x_points = List.rev !points;
    x_choices = choices;
    x_blocked = (match outcome with Error `Blocked -> true | _ -> false);
    x_violations = violations;
  }

(* --- strategies over independent runs ------------------------------- *)

let no_sleep (_ : int) = []

let pick_replay plan ~depth ~time:_ (_ : (int * int) array) =
  match List.nth_opt plan depth with Some o -> o | None -> 0

let pick_rand rng ~depth:_ ~time:_ cands =
  Random.State.int rng (Array.length cands)

(* PCT-style: every actor (decoded from the action tag) draws a random
   priority on first sight; the highest-priority candidate runs, and
   with probability 1/8 the winner is demoted below everyone so
   low-priority orderings eventually surface too. *)
let pick_pct rng prio ~depth:_ ~time:_ cands =
  let prio_of tag =
    match Hashtbl.find_opt prio tag with
    | Some p -> p
    | None ->
        let p = Random.State.float rng 1.0 +. 1.0 in
        Hashtbl.replace prio tag p;
        p
  in
  let best = ref 0 and best_p = ref neg_infinity in
  Array.iteri
    (fun i (_, tag) ->
      let p = prio_of tag in
      if p > !best_p then begin
        best := i;
        best_p := p
      end)
    cands;
  let _, wtag = cands.(!best) in
  if Random.State.int rng 8 = 0 then
    Hashtbl.replace prio wtag (Random.State.float rng 1.0);
  !best

let stats_of_runs runs ~complete =
  let schedules = List.length (List.filter (fun x -> not x.x_blocked) runs) in
  let sleep_blocked = List.length (List.filter (fun x -> x.x_blocked) runs) in
  let choice_points =
    List.fold_left (fun a x -> a + List.length x.x_points) 0 runs
  in
  let max_depth =
    List.fold_left (fun a x -> max a (List.length x.x_points)) 0 runs
  in
  let violations = List.concat_map (fun x -> x.x_violations) runs in
  { schedules; choice_points; max_depth; sleep_blocked; complete; violations }

(* --- DPOR ----------------------------------------------------------- *)

(* DFS-tree node: one choice point, persistent across the re-executions
   that share its prefix. [d_backtrack] marks ordinals some detected
   race wants explored; [d_done] marks ordinals whose whole subtree has
   been searched; [d_sleep] holds the chosen steps of finished siblings
   so re-executions can recognise commuting replays of them. *)
type dnode = {
  d_cands : (int * int) array;
  d_time : int;
  mutable d_chosen : int;
  d_done : bool array;
  d_backtrack : bool array;
  mutable d_sleep : sleeper list;
  mutable d_cur_step : step option;
      (* the chosen ordinal's executed step, with its full footprint —
         what goes to sleep when the DFS moves to a sibling. Footprints
         are deterministic along a fixed prefix, so the latest execution
         through this node is as good as any. *)
}

let dpor ~scenario ~mutate ~budget =
  let stack = ref [||] in
  let runs = ref [] in
  let executions = ref 0 in
  let found = ref false in
  let exhausted = ref false in
  let out_of_budget = ref false in
  while (not !exhausted) && (not !found) && not !out_of_budget do
    (* Re-execute: replay the stack's chosen ordinals, default beyond. *)
    let pick ~depth ~time:_ (_ : (int * int) array) =
      if depth < Array.length !stack then !stack.(depth).d_chosen else 0
    in
    let sleep_at depth =
      if depth < Array.length !stack then !stack.(depth).d_sleep else []
    in
    let x = run_one ~scenario ~mutate ~pick ~sleep_at () in
    incr executions;
    runs := x :: !runs;
    if not x.x_blocked then found := !found || x.x_violations <> [];
    (* Extend the stack with the fresh choice points this execution
       discovered (every replayed prefix point must already be there —
       the prefix is deterministic). *)
    let points = Array.of_list x.x_points in
    let old = !stack in
    if Array.length points > Array.length old then
      stack :=
        Array.init (Array.length points) (fun i ->
            if i < Array.length old then old.(i)
            else
              let c = points.(i) in
              let n = Array.length c.c_cands in
              let bt = Array.make n false in
              bt.(c.c_chosen) <- true;
              {
                d_cands = c.c_cands;
                d_time = c.c_time;
                d_chosen = c.c_chosen;
                d_done = Array.make n false;
                d_backtrack = bt;
                d_sleep = [];
                d_cur_step = None;
              });
    (* Remember each visited node's chosen step (full footprint) for the
       sleep set. A node whose chosen step was itself blocked keeps
       [None] and sleeps as opaque — conservative, never unsound. *)
    Array.iteri
      (fun i c ->
        if i < Array.length !stack && c.c_step < Array.length x.x_steps then
          (!stack).(i).d_cur_step <- Some x.x_steps.(c.c_step))
      points;
    (* Race detection: for each choice point, any later step at the same
       cycle that conflicts with the chosen one could have run first on
       a real machine. Ask the node to also try that event; when its seq
       was not among the candidates there (it did not exist yet), every
       alternative gets marked — a sound over-approximation. *)
    Array.iteri
      (fun i c ->
        if i < Array.length !stack && c.c_step < Array.length x.x_steps
        then begin
          let node = (!stack).(i) in
          let chosen_step = x.x_steps.(c.c_step) in
          let j = ref (c.c_step + 1) in
          let n = Array.length x.x_steps in
          while !j < n && x.x_steps.(!j).s_time = c.c_time do
            let later = x.x_steps.(!j) in
            if conflict chosen_step later then begin
              let hit = ref false in
              Array.iteri
                (fun o (seq, _) ->
                  if seq = later.s_seq then begin
                    node.d_backtrack.(o) <- true;
                    hit := true
                  end)
                node.d_cands;
              if not !hit then
                Array.iteri (fun o _ -> node.d_backtrack.(o) <- true)
                  node.d_cands
            end;
            incr j
          done
        end)
      points;
    (* DFS pop: finish the deepest node's current ordinal, move to its
       next requested sibling, or discard it and pop further. *)
    let rec pop k =
      if k < 0 then exhausted := true
      else begin
        let node = (!stack).(k) in
        node.d_done.(node.d_chosen) <- true;
        let sl =
          match node.d_cur_step with
          | Some st ->
              { sl_seq = st.s_seq; sl_fp = st.s_fp; sl_opaque = st.s_opaque }
          | None ->
              let seq, _ = node.d_cands.(node.d_chosen) in
              { sl_seq = seq; sl_fp = []; sl_opaque = true }
        in
        node.d_sleep <- sl :: node.d_sleep;
        node.d_cur_step <- None;
        let next = ref (-1) in
        Array.iteri
          (fun o req -> if req && (not node.d_done.(o)) && !next < 0 then next := o)
          node.d_backtrack;
        if !next >= 0 then begin
          node.d_chosen <- !next;
          stack := Array.sub !stack 0 (k + 1)
        end
        else pop (k - 1)
      end
    in
    if not !found then pop (Array.length !stack - 1);
    if !executions >= budget then out_of_budget := true
  done;
  stats_of_runs (List.rev !runs) ~complete:(!exhausted && not !found)

(* --- entry points --------------------------------------------------- *)

let explore ~scenario ?mutate ~strategy ~budget () =
  (match mutate with
  | Some m when not (List.mem m Scenario.mutations) ->
      invalid_arg ("Runner.explore: unknown mutation " ^ m)
  | _ -> ());
  let budget = max 1 budget in
  let single pick =
    let x = run_one ~scenario ~mutate ~pick ~sleep_at:no_sleep () in
    stats_of_runs [ x ] ~complete:false
  in
  match strategy with
  | Deterministic -> single (pick_replay [])
  | Replay plan -> single (pick_replay plan)
  | Dpor -> dpor ~scenario ~mutate ~budget
  | Rand seed ->
      let runs = ref [] in
      let i = ref 0 in
      let stop = ref false in
      while (not !stop) && !i < budget do
        let rng = Random.State.make [| seed; !i |] in
        let x = run_one ~scenario ~mutate ~pick:(pick_rand rng) ~sleep_at:no_sleep () in
        runs := x :: !runs;
        incr i;
        if x.x_violations <> [] then stop := true
      done;
      stats_of_runs (List.rev !runs) ~complete:false
  | Pct seed ->
      let runs = ref [] in
      let i = ref 0 in
      let stop = ref false in
      while (not !stop) && !i < budget do
        let rng = Random.State.make [| seed; !i |] in
        let prio = Hashtbl.create 32 in
        let x =
          run_one ~scenario ~mutate ~pick:(pick_pct rng prio) ~sleep_at:no_sleep ()
        in
        runs := x :: !runs;
        incr i;
        if x.x_violations <> [] then stop := true
      done;
      stats_of_runs (List.rev !runs) ~complete:false

let replay ~scenario ?mutate choices () =
  explore ~scenario ?mutate ~strategy:(Replay choices) ~budget:1 ()
