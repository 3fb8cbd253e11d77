(* Cycle counters are native ints: mutable [int64] record fields box on
   every store and every [Int64] op allocates, which made [compute] — the
   hottest call in the simulator — allocate several words per charge.
   Simulated runs stay far below 2^62 cycles, so int is safe. *)
type t = {
  engine : Engine.t;
  id : int;
  socket : int;
  ctx_switch : int;
  mutable free_at : int;
  mutable last_fid : int;
  mutable busy_cycles : int;
  mutable switches : int;
}

let create engine ~id ~socket ~ctx_switch =
  if ctx_switch < 0 then invalid_arg "Core_res.create: negative ctx_switch";
  {
    engine;
    id;
    socket;
    ctx_switch;
    free_at = 0;
    last_fid = -1;
    busy_cycles = 0;
    switches = 0;
  }

let id t = t.id

let engine t = t.engine

let socket t = t.socket


let busy_cycles t = Int64.of_int t.busy_cycles

let switches t = t.switches

let compute t cycles =
  if cycles < 0 then invalid_arg "Core_res.compute: negative cycles";
  (* O(1) engine field read; [Engine.self ()] would pay an effect-handler
     round trip on every charge. *)
  let fid = Engine.current_fid t.engine in
  let now = Engine.now_cycles t.engine in
  let start = if t.free_at > now then t.free_at else now in
  let switching = t.last_fid <> fid && t.last_fid <> -1 in
  let cost = if switching then cycles + t.ctx_switch else cycles in
  if switching then t.switches <- t.switches + 1;
  let finish = start + cost in
  t.free_at <- finish;
  t.last_fid <- fid;
  t.busy_cycles <- t.busy_cycles + cost;
  let o = Engine.obs t.engine in
  if o.Obs.wanted land Obs.spans <> 0 then begin
    let switch = if switching then t.ctx_switch else 0 in
    Obs.emit o
      (Cpu { fid; track = t.id; now; start; finish; cost; switch; switched = switching })
  end;
  Engine.sleep_on t.engine (finish - now)
