type fiber = {
  fid : int;
  name : string;
  daemon : bool;
  mutable state : [ `Created | `Runnable | `Blocked | `Done ];
}

(* A registered pending-depth probe. Slots are recycled through a free
   list so crash/teardown can deregister a mailbox without leaving the
   registry to scan dead entries forever. *)
type probe = { p_name : string; p_depth : unit -> int }

type t = {
  mutable time : int64;
  events : (unit -> unit) Heap.t;
  mutable seq : int;
  mutable live : int;
  mutable next_fid : int;
  root_rng : Rng.t;
  fibers : (int, fiber) Hashtbl.t;
      (* fibers that have not finished, for deadlock reporting; `Done
         fibers are pruned so long open-loop runs do not leak *)
  mutable peak_fibers : int;
  mutable spawned : int;
  mutable steps : int; (* events executed, for host-throughput metrics *)
  mutable cur : fiber option; (* fiber currently executing, if any *)
  mutable probes : probe option array; (* compact slots; None = free *)
  mutable nprobes : int; (* upper bound of used slots *)
  mutable probe_free : int list; (* recycled slot indices *)
  obs : Obs.t; (* the observer bus; see obs.mli *)
  (* Schedule explorer (PR 10): when attached, every tie between events
     due at the same simulated cycle is routed through this chooser
     instead of the deterministic lowest-seq pop. *)
  mutable explore : (time:int -> (int * int) array -> int) option;
  mutable next_obj : int; (* shared-object uid allocator (mailboxes) *)
}

exception Deadlock of string

exception Fiber_failure of string * exn

type waker = unit -> unit

type _ Effect.t +=
  | Self : fiber Effect.t
  | Sleep_cycles : int -> unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t

let create ?(seed = 1L) () =
  let t = {
    time = 0L;
    events = Heap.create ();
    seq = 0;
    live = 0;
    next_fid = 0;
    root_rng = Rng.create ~seed;
    fibers = Hashtbl.create 256;
    peak_fibers = 0;
    spawned = 0;
    steps = 0;
    cur = None;
    probes = [||];
    nprobes = 0;
    probe_free = [];
    obs = Obs.create ();
    explore = None;
    next_obj = 0;
  } in
  Obs.set_clock t.obs (fun () -> Int64.to_int t.time);
  t

let now t = t.time

let rng t = t.root_rng

let obs t = t.obs

(* --- schedule exploration (PR 10) ------------------------------------- *)

(* Action tags ride heap entries so the explorer can tell what kind of
   event each same-cycle candidate is. Packed into one non-negative int:
   0 is an opaque event (timer, injector callback — anything whose
   effects the bus's footprint events cannot see), odd tags resume a fiber,
   even tags >= 2 deliver into a mailbox. *)
let tag_resume fid = (2 * fid) + 1

let tag_deliver obj = (2 * obj) + 2

type tag_kind = Opaque | Resume of int | Deliver of int

let tag_kind tag =
  if tag <= 0 then Opaque
  else if tag land 1 = 1 then Resume (tag lsr 1)
  else Deliver ((tag - 2) / 2)

let set_explorer t ex = t.explore <- Some ex

let new_object t =
  let o = t.next_obj in
  t.next_obj <- o + 1;
  o

let fiber_id f = f.fid

let live_fibers t = t.live

let registered_fibers t = Hashtbl.length t.fibers

let peak_fibers t = t.peak_fibers

let spawned_fibers t = t.spawned

let events_executed t = t.steps

(* The id of the fiber currently executing, or -1 between events. Exactly
   one fiber runs at a time (run-to-completion between effects), so a
   single mutable field — maintained at every resume point — replaces the
   [Self] effect on hot paths like [Core_res.compute]. *)
let current_fid t = match t.cur with Some f -> f.fid | None -> -1

let schedule_at t ?(tag = 0) time f =
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %Ld is in the past (now %Ld)"
         time t.time);
  t.seq <- t.seq + 1;
  Heap.push t.events ~tag ~time:(Int64.to_int time) ~seq:t.seq f

let spawn t ?(daemon = false) ~name body =
  let fiber = { fid = t.next_fid; name; daemon; state = `Created } in
  t.next_fid <- t.next_fid + 1;
  t.spawned <- t.spawned + 1;
  if not daemon then t.live <- t.live + 1;
  Hashtbl.replace t.fibers fiber.fid fiber;
  let n = Hashtbl.length t.fibers in
  if n > t.peak_fibers then t.peak_fibers <- n;
  let finish () =
    fiber.state <- `Done;
    Hashtbl.remove t.fibers fiber.fid;
    if not daemon then t.live <- t.live - 1
  in
  let start () =
    fiber.state <- `Runnable;
    t.cur <- Some fiber;
    let open Effect.Deep in
    match_with body ()
      {
        retc = finish;
        exnc =
          (fun exn ->
            finish ();
            raise (Fiber_failure (name, exn)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Self ->
                Some
                  (fun (k : (a, unit) continuation) -> continue k fiber)
            | Sleep_cycles d ->
                (* An immediate-int payload and native-int time
                   arithmetic, so the per-compute sleep on the hot path
                   allocates nothing. *)
                Some
                  (fun (k : (a, unit) continuation) ->
                    if d < 0 then
                      discontinue k (Invalid_argument "Engine.sleep: negative")
                    else begin
                      t.seq <- t.seq + 1;
                      Heap.push t.events
                        ~tag:(tag_resume fiber.fid)
                        ~time:(Int64.to_int t.time + d)
                        ~seq:t.seq
                        (fun () ->
                          t.cur <- Some fiber;
                          continue k ())
                    end)
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    fiber.state <- `Blocked;
                    let fired = ref false in
                    let waker () =
                      if !fired then
                        failwith
                          (Printf.sprintf "waker for fiber %s invoked twice"
                             fiber.name)
                      else begin
                        fired := true;
                        fiber.state <- `Runnable;
                        schedule_at t ~tag:(tag_resume fiber.fid) t.time
                          (fun () ->
                            t.cur <- Some fiber;
                            continue k ())
                      end
                    in
                    register waker)
            | _ -> None);
      }
  in
  schedule_at t ~tag:(tag_resume fiber.fid) t.time start;
  fiber

let register_probe t ~name depth =
  let probe = Some { p_name = name; p_depth = depth } in
  match t.probe_free with
  | slot :: rest ->
      t.probe_free <- rest;
      t.probes.(slot) <- probe;
      slot
  | [] ->
      let slot = t.nprobes in
      let capacity = Array.length t.probes in
      if slot = capacity then begin
        let capacity' = if capacity = 0 then 16 else capacity * 2 in
        let probes' = Array.make capacity' None in
        Array.blit t.probes 0 probes' 0 capacity;
        t.probes <- probes'
      end;
      t.probes.(slot) <- probe;
      t.nprobes <- slot + 1;
      slot

let unregister_probe t id =
  if id >= 0 && id < t.nprobes && t.probes.(id) <> None then begin
    t.probes.(id) <- None;
    t.probe_free <- id :: t.probe_free
  end

let probe_count t =
  let n = ref 0 in
  for i = 0 to t.nprobes - 1 do
    if t.probes.(i) <> None then incr n
  done;
  !n

let pending_depths t =
  let out = ref [] in
  for i = t.nprobes - 1 downto 0 do
    match t.probes.(i) with
    | None -> ()
    | Some p -> (
        match p.p_depth () with
        | 0 -> ()
        | d -> out := Printf.sprintf "%s=%d" p.p_name d :: !out
        | exception _ -> ())
  done;
  !out

let blocked_names t =
  Hashtbl.fold
    (fun _ f acc ->
      if f.state = `Blocked && not f.daemon then f :: acc else acc)
    t.fibers []
  |> List.sort (fun a b -> compare a.fid b.fid)
  |> List.map (fun f -> Printf.sprintf "%s[%d]" f.name f.fid)
  |> String.concat ", "

(* Announce the step before its effects land: the sampler's grid point
   reflects every event strictly before it, and the explorer's footprint
   for this step starts empty. *)
let exec_event t time seq tag f =
  t.time <- Int64.of_int time;
  t.steps <- t.steps + 1;
  (* Plain callbacks (timers) run outside any fiber; fiber starts and
     resumes re-set [cur] themselves before continuing. *)
  t.cur <- None;
  if Obs.on t.obs Obs.steps then Obs.emit t.obs (Obs.Step { time; seq; tag });
  f ()

let step t =
  match t.explore with
  | None ->
      let tag = if Obs.on t.obs Obs.steps then Heap.min_tag t.events else 0 in
      let time, seq, f = Heap.pop_min t.events in
      exec_event t time seq tag f
  | Some choose ->
      (* Choice point: every event due at the minimum cycle is a
         candidate; the strategy picks which one the "hardware" lands
         first. With a single candidate there is no choice, and index 0
         (the lowest seq) reproduces the deterministic order exactly. *)
      let cands = Heap.min_entries t.events in
      let idx =
        if Array.length cands > 1 then
          choose ~time:(Heap.min_time t.events) cands
        else 0
      in
      let seq, tag = cands.(idx) in
      let time, _tag, f = Heap.remove_seq t.events seq in
      exec_event t time seq tag f

let check_deadlock t =
  if t.live > 0 then begin
    let depths =
      match pending_depths t with
      | [] -> "no undelivered mailbox messages"
      | ds -> "undelivered mailbox messages: " ^ String.concat ", " ds
    in
    let spans =
      String.concat "" (List.map (( ^ ) "; ") (Obs.diagnostics t.obs))
    in
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) blocked with no pending events: %s (%s)%s"
            t.live (blocked_names t) depths spans))
  end

let run t =
  while not (Heap.is_empty t.events) do
    step t
  done;
  (* The last event may have run (and completed) inside a fiber; nothing
     is executing once the loop exits. *)
  t.cur <- None;
  check_deadlock t

let run_for t budget =
  let limit = Int64.to_int (Int64.add t.time budget) in
  let continue_ = ref true in
  while !continue_ && not (Heap.is_empty t.events) do
    if Heap.min_time t.events > limit then continue_ := false else step t
  done;
  t.cur <- None;
  if Heap.is_empty t.events then check_deadlock t

(* Effects-performing helpers; callable only from inside a fiber. *)

let self () = Effect.perform Self

let sleep_cycles d = Effect.perform (Sleep_cycles d)

let sleep d = sleep_cycles (Int64.to_int d)

let suspend register = Effect.perform (Suspend register)
