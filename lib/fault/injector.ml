open Hare_sim
module Robust = Hare_stats.Robust

type t = {
  engine : Engine.t;
  rng : Rng.t;
  plan : Plan.t;
  stats : Robust.t;
  links : (int, link) Hashtbl.t;
}

and link = {
  inj : t;
  sid : int;
  rules : Plan.msg_rule list;
  link_rng : Rng.t;
  mutable down : bool;
  mutable stalled_until : int64;
}

let create ~engine ~seed plan =
  {
    engine;
    rng = Rng.create ~seed;
    plan;
    stats = Robust.create ();
    links = Hashtbl.create 8;
  }

let stats t = t.stats

let server_events t =
  List.sort
    (fun a b -> Int64.compare a.Plan.ev_at b.Plan.ev_at)
    t.plan.Plan.events

(* One link object per server for the injector's lifetime: the mailbox,
   the server, and the fault fibers must all observe the same down/stall
   state and drain the same dice stream. *)
let link t ~sid =
  match Hashtbl.find_opt t.links sid with
  | Some l -> l
  | None ->
      let matches r =
        match r.Plan.target with
        | Plan.All_servers -> true
        | Plan.Server k -> k = sid
      in
      let l =
        {
          inj = t;
          sid;
          rules = List.filter matches t.plan.Plan.rules;
          link_rng = Rng.split t.rng;
          down = false;
          stalled_until = 0L;
        }
      in
      Hashtbl.add t.links sid l;
      l

let down l = l.down

let set_down l b = l.down <- b

let stalled_until l = l.stalled_until

let stall_until l time =
  if time > l.stalled_until then l.stalled_until <- time

let note_blackholed l =
  Robust.incr l.inj.stats Robust.blackholed

type verdict = Deliver | Drop | Duplicate | Delay of int64

(* Dice are rolled per rule, in plan order, for every unreliable send —
   including sends that end up unfaulted — so the fault sequence depends
   only on (seed, plan, send order). *)
let on_send l ~unreliable =
  if (not unreliable) || l.rules = [] then Deliver
  else
    let stats = l.inj.stats in
    let rec roll = function
      | [] -> Deliver
      | (r : Plan.msg_rule) :: rest ->
          if Rng.float l.link_rng < r.prob then
            match r.action with
            | Plan.Drop ->
                Robust.incr stats Robust.drops;
                Drop
            | Plan.Duplicate ->
                Robust.incr stats Robust.dups;
                Duplicate
            | Plan.Delay max_cycles ->
                Robust.incr stats Robust.delays;
                Delay (Int64.of_int (1 + Rng.int l.link_rng max_cycles))
          else roll rest
    in
    roll l.rules
