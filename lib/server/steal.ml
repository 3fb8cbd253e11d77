open Hare_sim
module Wire = Hare_proto.Wire
module Errno = Hare_proto.Errno
module Rpc = Hare_msg.Rpc

type t = {
  engine : Engine.t;
  enabled : bool;
  sid : int;
  core : Core_res.t;
  costs : Hare_config.Costs.t;
  blocks : Blocklist.t;
  mutable peers : (Wire.fs_req, Wire.fs_resp) Rpc.t array;
  parked : Home.request Queue.t;
  mutable inflight : bool;
  mutable victim : int;
  mutable failures : int;  (* peers that declined since the last success *)
  mutable stolen : int;
}

let create ~engine ~(config : Hare_config.Config.t) ~sid ~core ~blocks =
  {
    engine;
    enabled = config.block_stealing;
    sid;
    core;
    costs = config.costs;
    blocks;
    peers = [||];
    parked = Queue.create ();
    inflight = false;
    victim = sid;
    failures = 0;
    stolen = 0;
  }

let set_peers t peers = t.peers <- peers

let stolen t = t.stolen

let busy t = t.inflight || not (Queue.is_empty t.parked)

(* Empty the parked queue, returning what it held in order. *)
let take_parked t =
  let l = List.of_seq (Queue.to_seq t.parked) in
  Queue.clear t.parked;
  l

let rec kick t ~retry =
  if (not t.inflight) && not (Queue.is_empty t.parked) then
    if t.failures >= Array.length t.peers - 1 then begin
      t.failures <- 0;
      List.iter
        (fun (r : Home.request) -> r.reply (Error Errno.ENOSPC))
        (take_parked t)
    end
    else begin
      t.inflight <- true;
      t.victim <- (t.victim + 1) mod Array.length t.peers;
      if t.victim = t.sid then t.victim <- (t.victim + 1) mod Array.length t.peers;
      let future, span =
        Rpc.call_async t.peers.(t.victim) ~from:t.core ~abs_deadline:0L
          (Wire.Steal_blocks { count = 128 })
      in
      ignore
        (Engine.spawn t.engine
           ~name:(Printf.sprintf "steal-%d" t.sid)
           (fun () ->
             let resp = Rpc.await ~from:t.core ~costs:t.costs ~span future in
             t.inflight <- false;
             (match resp with
             | Ok (Wire.P_blocks { blocks; _ }) ->
                 t.failures <- 0;
                 t.stolen <- t.stolen + Array.length blocks;
                 Blocklist.adopt t.blocks blocks
             | Ok _ | Error _ -> t.failures <- t.failures + 1);
             List.iter retry (take_parked t);
             kick t ~retry))
    end

let park t ~retry (r : Home.request) =
  if (not t.enabled) || Array.length t.peers <= 1 then r.reply (Error Errno.ENOSPC)
  else begin
    Queue.push r t.parked;
    kick t ~retry
  end

let donate t ~count (reply : Home.reply) =
  let give = Blocklist.donate t.blocks (Int.min count (Blocklist.available t.blocks / 2)) in
  if Array.length give = 0 then reply (Error Errno.ENOSPC)
  else reply (Ok (Wire.P_blocks { blocks = give; bsize = 0 }))

let abort t =
  let parked = take_parked t in
  List.iter (fun (r : Home.request) -> r.reply (Error Errno.EIO)) parked;
  List.length parked
