module Wire = Hare_proto.Wire
module Perf = Hare_stats.Perf

type 'w client = {
  tbl : (int, 'w entry) Hashtbl.t;
  mutable pruned : int;
      (* every seq at or below has a final client-side outcome, can never
         be retransmitted, and has been evicted *)
}

and 'w entry = Pending of 'w pending | Done of Wire.fs_resp

and 'w pending = {
  owner : 'w client;
  seq : int;
  mutable joined : 'w list;
  mutable answered : bool;
}

type 'w t = { clients : (int, 'w client) Hashtbl.t; perf : Perf.t }

type 'w admission = Fresh of 'w pending | Replay of Wire.fs_resp | Joined

let create ~perf = { clients = Hashtbl.create 16; perf }

let reset d = Hashtbl.reset d.clients

let client d id =
  match Hashtbl.find_opt d.clients id with
  | Some c -> c
  | None ->
      let c = { tbl = Hashtbl.create 64; pruned = 0 } in
      Hashtbl.replace d.clients id c;
      c

(* Advance the client's eviction mark to [ack], dropping every entry it
   covers. A [Pending] below the mark means the client gave up on the
   request (EIO after the retry budget) while the original is still
   parked here; its eventual reply fills an ivar nobody reads, and
   {!finish} will not re-cache it. *)
let ack d c ~ack =
  if ack > c.pruned then begin
    for seq = c.pruned + 1 to ack do
      if Hashtbl.mem c.tbl seq then begin
        Hashtbl.remove c.tbl seq;
        Perf.incr d.perf Perf.dedup_evicted
      end
    done;
    c.pruned <- ack
  end

(* Sequence numbers are monotonic per client and a client has at most a
   handful of RPCs outstanding, so cached responses far behind the
   current sequence can never be asked for again. *)
let prune c ~before =
  Hashtbl.filter_map_inplace
    (fun seq entry ->
      match entry with Done _ when seq < before -> None | e -> Some e)
    c.tbl

let admit d (m : Hare_msg.Rpc.meta) slot =
  let c = client d m.m_client in
  ack d c ~ack:m.m_ack;
  match Hashtbl.find_opt c.tbl m.m_seq with
  | Some (Done resp) -> Replay resp
  | Some (Pending p) ->
      p.joined <- slot :: p.joined;
      Joined
  | None ->
      let p = { owner = c; seq = m.m_seq; joined = []; answered = false } in
      Hashtbl.replace c.tbl m.m_seq (Pending p);
      if Hashtbl.length c.tbl > 256 then prune c ~before:(m.m_seq - 128);
      Fresh p

let finish p resp =
  if p.answered then None
  else begin
    p.answered <- true;
    if p.seq > p.owner.pruned then Hashtbl.replace p.owner.tbl p.seq (Done resp);
    Some p.joined
  end

let seen d (m : Hare_msg.Rpc.meta) =
  match Hashtbl.find_opt d.clients m.m_client with
  | Some c -> Hashtbl.mem c.tbl m.m_seq
  | None -> false

let shed d (m : Hare_msg.Rpc.meta) =
  let c = client d m.m_client in
  ack d c ~ack:m.m_ack;
  Hashtbl.replace c.tbl m.m_seq (Done (Error Hare_proto.Errno.EBUSY))

let export d =
  Hashtbl.fold
    (fun id c acc ->
      Hashtbl.fold
        (fun seq entry acc ->
          match entry with Done resp -> (id, seq, resp) :: acc | Pending _ -> acc)
        c.tbl acc)
    d.clients []

let import d entries =
  List.iter
    (fun (id, seq, resp) ->
      let c = client d id in
      if seq > c.pruned && not (Hashtbl.mem c.tbl seq) then
        Hashtbl.replace c.tbl seq (Done resp))
    entries
