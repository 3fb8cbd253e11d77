open Effect.Deep

type t = {
  mutable time : int; (* simulated cycles; native int, like the heap keys *)
  events : (unit -> unit) Heap.t;
  mutable seq : int;
  mutable live : int;
  mutable next_fid : int;
  root_rng : Rng.t;
  fibers : fiber Tbl.Int.t;
      (* fibers that have not finished, for deadlock reporting; `Done
         fibers are pruned so long open-loop runs do not leak *)
  mutable peak_fibers : int;
  mutable spawned : int;
  mutable steps : int; (* events executed, for host-throughput metrics *)
  mutable cur : int; (* id of the fiber currently executing, or -1 *)
  mutable probes : probe option array; (* compact slots; None = free *)
  mutable nprobes : int; (* upper bound of used slots *)
  mutable probe_free : int list; (* recycled slot indices *)
  obs : Obs.t; (* the observer bus; see obs.mli *)
  (* Schedule explorer (PR 10): when attached, every tie between events
     due at the same simulated cycle is routed through this chooser
     instead of the deterministic lowest-seq pop. *)
  mutable explore : (time:int -> (int * int) array -> int) option;
  mutable next_obj : int; (* shared-object uid allocator (mailboxes) *)
  mutable limit : int; (* [run_for]'s horizon; [max_int] under [run] *)
  (* The resume a fiber's sleep just scheduled, held back from the heap:
     the loop's next step runs it directly when it is due before every
     heap entry, and otherwise swaps it in for the heap minimum it runs
     instead — one sift per sleep, not a push's and a pop's. Set only
     between a sleep and that step. *)
  mutable held : bool;
  mutable held_time : int;
  mutable held_seq : int;
  mutable held_tag : int;
  mutable held_f : unit -> unit;
}

(* A fiber owns its parked continuation and the one closure that resumes
   it, made at spawn: a sleep or a wake pushes [resume] itself onto the
   event heap, so parking allocates no per-event closure. *)
and fiber = {
  fid : int;
  name : string;
  daemon : bool;
  mutable state : [ `Created | `Runnable | `Blocked | `Done ];
  mutable parked : (unit, unit) continuation;
  resume : unit -> unit;
  mutable suspensions : int;
      (* generation of the current [Suspend]; a waker from an earlier one
         is stale *)
}

(* A registered pending-depth probe. Slots are recycled through a free
   list so crash/teardown can deregister a mailbox without leaving the
   registry to scan dead entries forever. *)
and probe = { p_name : string; p_depth : unit -> int }

exception Deadlock of string

exception Fiber_failure of string * exn

let () =
  Printexc.register_printer (function
    | Fiber_failure (name, exn) ->
        Some
          (Printf.sprintf "Engine.Fiber_failure(%S, %s)" name
             (Printexc.to_string exn))
    | _ -> None)

type waker = unit -> unit

(* The duration of the sleep being performed. [sleep_cycles] stores it
   just before performing the constant [Sleep_cycles] (no effect value
   to allocate), and the handler reads it: the engine's handler is the
   only one in the simulator, so nothing runs between the store and the
   read. *)
let sleep_duration = ref 0

type _ Effect.t +=
  | Self : fiber Effect.t
  | Sleep_cycles : unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t

(* The initial content of a fiber's [parked] slot, never resumed: one real
   continuation, captured once, keeps the slot unboxed — an option would
   allocate a box on every park. *)
type _ Effect.t += Placeholder : unit Effect.t

let placeholder : (unit, unit) continuation =
  let slot : (unit, unit) continuation option ref = ref None in
  match_with Effect.perform Placeholder
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Placeholder ->
              Some (fun (k : (a, unit) continuation) -> slot := Some k)
          | _ -> None);
    };
  Option.get !slot

let create ?(seed = 1L) () =
  let t = {
    time = 0;
    events = Heap.create ();
    seq = 0;
    live = 0;
    next_fid = 0;
    root_rng = Rng.create ~seed;
    fibers = Tbl.Int.create 256;
    peak_fibers = 0;
    spawned = 0;
    steps = 0;
    cur = -1;
    probes = [||];
    nprobes = 0;
    probe_free = [];
    obs = Obs.create ();
    explore = None;
    next_obj = 0;
    limit = max_int;
    held = false;
    held_time = 0;
    held_seq = 0;
    held_tag = 0;
    held_f = ignore;
  } in
  Obs.set_clock t.obs (fun () -> t.time);
  t

let now t = Int64.of_int t.time

let now_cycles t = t.time

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

let registered_fibers t = Tbl.Int.length t.fibers

let peak_fibers t = t.peak_fibers

let spawned_fibers t = t.spawned

let events_executed t = t.steps

(* The id of the fiber currently executing, or -1 between events. Exactly
   one fiber runs at a time (run-to-completion between effects), so a
   single mutable field — maintained at every resume point — replaces the
   [Self] effect on hot paths like [Core_res.compute]. *)
let current_fid t = t.cur

let push_event t ~tag time f =
  t.seq <- t.seq + 1;
  Heap.push t.events ~tag ~time ~seq:t.seq f

(* The held resume goes to the heap whenever something other than the
   default loop must see every pending event. *)
let flush t =
  if t.held then begin
    t.held <- false;
    Heap.push t.events ~tag:t.held_tag ~time:t.held_time ~seq:t.held_seq
      t.held_f
  end

let hold t ~tag time f =
  flush t;
  t.seq <- t.seq + 1;
  t.held <- true;
  t.held_time <- time;
  t.held_seq <- t.seq;
  t.held_tag <- tag;
  t.held_f <- f

let schedule_at t ?(tag = 0) time f =
  if Int64.to_int time < t.time then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %Ld is in the past (now %d)"
         time t.time);
  push_event t ~tag (Int64.to_int time) f

let resume_fiber t fiber =
  t.cur <- fiber.fid;
  continue fiber.parked ()

(* A waker is the one closure each [Suspend] allocates: it must fail if
   it fires twice, or after its fiber has moved on to a later
   suspension, so it carries the suspension's generation. *)
let waker t fiber gen () =
  if fiber.suspensions <> gen || fiber.state <> `Blocked then
    failwith (Printf.sprintf "waker for fiber %s invoked twice" fiber.name)
  else begin
    fiber.state <- `Runnable;
    push_event t ~tag:(tag_resume fiber.fid) t.time fiber.resume
  end

let spawn t ?(daemon = false) ~name body =
  let rec fiber =
    {
      fid = t.next_fid;
      name;
      daemon;
      state = `Created;
      parked = placeholder;
      resume = (fun () -> resume_fiber t fiber);
      suspensions = 0;
    }
  in
  t.next_fid <- t.next_fid + 1;
  t.spawned <- t.spawned + 1;
  if not daemon then t.live <- t.live + 1;
  Tbl.Int.replace t.fibers fiber.fid fiber;
  let n = Tbl.Int.length t.fibers in
  if n > t.peak_fibers then t.peak_fibers <- n;
  let finish () =
    fiber.state <- `Done;
    Tbl.Int.remove t.fibers fiber.fid;
    if not daemon then t.live <- t.live - 1
  in
  (* The per-fiber handlers: [effc] only stashes a suspend's payload and
     returns one of these, so a sleep or a suspend allocates no handler
     closure of its own. *)
  let register = ref ignore in
  let park_sleep =
    Some
      (fun k ->
        fiber.parked <- k;
        hold t ~tag:(tag_resume fiber.fid) (t.time + !sleep_duration)
          fiber.resume)
  in
  let park_suspend =
    Some
      (fun k ->
        fiber.parked <- k;
        fiber.state <- `Blocked;
        fiber.suspensions <- fiber.suspensions + 1;
        let r = !register in
        register := ignore;
        r (waker t fiber fiber.suspensions))
  in
  let handler =
    {
      retc = finish;
      exnc =
        (fun exn ->
          finish ();
          raise (Fiber_failure (name, exn)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Self -> Some (fun (k : (a, unit) continuation) -> continue k fiber)
          | Sleep_cycles ->
              if !sleep_duration < 0 then
                Some
                  (fun (k : (a, unit) continuation) ->
                    discontinue k (Invalid_argument "Engine.sleep: negative"))
              else park_sleep
          | Suspend r ->
              register := r;
              park_suspend
          | _ -> None);
    }
  in
  let start () =
    fiber.state <- `Runnable;
    t.cur <- fiber.fid;
    match_with body () handler
  in
  push_event t ~tag:(tag_resume fiber.fid) t.time start;
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
  Tbl.Int.fold
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
  t.time <- time;
  t.steps <- t.steps + 1;
  (* Plain callbacks (timers) run outside any fiber; fiber starts and
     resumes re-set [cur] themselves before continuing. *)
  t.cur <- -1;
  if t.obs.Obs.wanted land Obs.steps <> 0 then
    Obs.emit t.obs (Obs.Step { time; seq; tag });
  f ()

let step t =
  let h = t.events in
  match t.explore with
  | None when t.held ->
      t.held <- false;
      let time = t.held_time and seq = t.held_seq and tag = t.held_tag in
      if
        h.size = 0
        || (let mt = h.times.(0) in
            time < mt || (time = mt && seq < h.seqs.(0)))
      then exec_event t time seq tag t.held_f
      else
        let mtime = h.times.(0) and mseq = h.seqs.(0) and mtag = h.tags.(0) in
        exec_event t mtime mseq mtag
          (Heap.replace_min h ~time ~seq ~tag t.held_f)
  | None ->
      let time = h.times.(0) and seq = h.seqs.(0) and tag = h.tags.(0) in
      exec_event t time seq tag (Heap.pop h)
  | Some choose ->
      flush t;
      (* Choice point: every event due at the minimum cycle is a
         candidate; the strategy picks which one the "hardware" lands
         first. With a single candidate there is no choice, and index 0
         (the lowest seq) reproduces the deterministic order exactly. *)
      let cands = Heap.min_entries h in
      let idx =
        if Array.length cands > 1 then choose ~time:(Heap.min_time h) cands
        else 0
      in
      let seq, tag = cands.(idx) in
      let time, _tag, f = Heap.remove_seq h seq in
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

let pending t = t.held || t.events.size > 0

(* Due time of the next step; [pending t] must hold. *)
let next_time t =
  let h = t.events in
  if h.size = 0 then t.held_time
  else
    let mt = h.times.(0) in
    if t.held && t.held_time < mt then t.held_time else mt

let run t =
  t.limit <- max_int;
  while pending t do
    step t
  done;
  (* The last event may have run (and completed) inside a fiber; nothing
     is executing once the loop exits. *)
  t.cur <- -1;
  check_deadlock t

let run_for t budget =
  let limit = t.time + Int64.to_int budget in
  t.limit <- limit;
  let continue_ = ref true in
  while !continue_ && pending t do
    if next_time t > limit then continue_ := false else step t
  done;
  flush t;
  t.limit <- max_int;
  t.cur <- -1;
  if Heap.is_empty t.events then check_deadlock t

(* Effects-performing helpers; callable only from inside a fiber. *)

let self () = Effect.perform Self

let sleep_cycles d =
  sleep_duration := d;
  Effect.perform Sleep_cycles

let sleep d = sleep_cycles (Int64.to_int d)

(* A sleep that wakes strictly before every pending event, within
   [run_for]'s horizon, is the next step whatever the fiber does: it
   takes that step in place — consumes the seq, counts the step,
   announces it — instead of parking. The explorer, whose Step
   subscriber may raise to abort the run, always sees the parked form. *)
let sleep_on t d =
  let wake = t.time + d in
  if
    d >= 0 && t.cur >= 0 && t.explore == None && wake <= t.limit
    && (t.events.size = 0 || wake < t.events.times.(0))
  then begin
    let fid = t.cur in
    t.seq <- t.seq + 1;
    t.time <- wake;
    t.steps <- t.steps + 1;
    if t.obs.Obs.wanted land Obs.steps <> 0 then begin
      t.cur <- -1;
      Obs.emit t.obs (Obs.Step { time = wake; seq = t.seq; tag = tag_resume fid });
      t.cur <- fid
    end
  end
  else sleep_cycles d

let suspend register = Effect.perform (Suspend register)
