open Hare_sim

type 'a t = {
  queue : 'a Bqueue.t;
  owner : Core_res.t;
  costs : Hare_config.Costs.t;
  faults : Hare_fault.Injector.link option;
  name : string option;
  uid : int;
      (* engine shared-object uid: this mailbox's identity on the bus
         (the sanitizer's stamp FIFO, the explorer's footprint) *)
  mutable flow_blocked : int;
      (* sends that had to wait for a credit (bounded mailbox full) *)
  mutable probe : int;
      (* engine probe slot for the depth probe; -1 = unnamed/unwatched *)
}

let create ?name ?capacity ?faults ~owner ~costs () =
  (match capacity with
  | Some c when c <= 0 ->
      invalid_arg "Mailbox.create: capacity must be positive"
  | _ -> ());
  let t =
    {
      queue = Bqueue.create ?capacity ();
      owner;
      costs;
      faults;
      name;
      uid = Engine.new_object (Core_res.engine owner);
      flow_blocked = 0;
      probe = -1;
    }
  in
  (match name with
  | None -> ()
  | Some name ->
      t.probe <-
        Engine.register_probe (Core_res.engine owner) ~name (fun () ->
            Bqueue.length t.queue));
  t

let owner t = t.owner

(* Crashed endpoints stop advertising their depth: a dead server's
   mailbox in a deadlock report is noise, and the engine should not scan
   it forever. [rewatch] re-registers on restart. Both are idempotent. *)
let unwatch t =
  if t.probe >= 0 then begin
    Engine.unregister_probe (Core_res.engine t.owner) t.probe;
    t.probe <- -1
  end

let rewatch t =
  match t.name with
  | Some name when t.probe < 0 ->
      t.probe <-
        Engine.register_probe (Core_res.engine t.owner) ~name (fun () ->
            Bqueue.length t.queue)
  | _ -> ()

let obs t = Engine.obs (Core_res.engine t.owner)

let note_recv t =
  let o = obs t in
  if Obs.on o Obs.msgs then
    Obs.emit o (Msg_dequeue { uid = t.uid; core = Core_res.id t.owner })

(* Named mailboxes publish their depth as a Perfetto counter track on the
   owner's core whenever it changes. *)
let depth_counter t =
  let o = obs t in
  match t.name with
  | Some name when Obs.on o Obs.marks ->
      let track = Core_res.id t.owner and value = Bqueue.length t.queue in
      Obs.emit o (Counter { name = "mb:" ^ name; track; ts = Obs.now o; value })
  | _ -> ()

let fault t ~mid ~copies name ~span =
  let o = obs t in
  if Obs.on o Obs.msgs then Obs.emit o (Msg_fault { mid; copies });
  if Obs.on o Obs.marks then begin
    let args = if span <> 0 then [ ("span", string_of_int span) ] else [] in
    let track = Core_res.id t.owner in
    Obs.emit o (Instant { name; track; ts = Obs.now o; args })
  end

(* Admission (the credit) was secured in {!send}; the enqueue itself
   never blocks, so it is safe inside the fault injector's scheduler
   callbacks, and a duplicate verdict's second copy rides the same
   credit (bounded overshoot, like a retransmission on a real wire). *)
let enqueue t ~mid msg =
  Bqueue.push_overflow t.queue msg;
  let o = obs t in
  if Obs.on o Obs.msgs then Obs.emit o (Msg_enqueue { mid; uid = t.uid });
  depth_counter t

let send t ~from ?(payload_lines = 0) ?(unreliable = false) ?(span = 0) msg =
  let cost = t.costs.send + (payload_lines * t.costs.msg_per_line) in
  let cost =
    if Core_res.socket from <> Core_res.socket t.owner then
      cost + t.costs.send_cross_socket
    else cost
  in
  (* The message's bus id ties the send (the sender's happens-before
     stamp) to every copy the fault dice let into the queue. *)
  let o = obs t in
  let mid = if Obs.on o Obs.msgs then Obs.fresh_msg o else 0 in
  if Obs.on o Obs.msgs then
    Obs.emit o (Msg_send { mid; uid = t.uid; core = Core_res.id from });
  if Obs.on o Obs.spans then begin
    let fid = Engine.current_fid (Core_res.engine from) in
    Obs.emit o (Pending { fid; parts = [ (Send, cost) ] })
  end;
  Core_res.compute from cost;
  (* Credit-based flow control (PR 6): a bounded mailbox admits a
     message only when a queue slot is free. The sender parks here, at
     send time, until the owner drains — backpressure instead of
     unbounded queue growth. Unbounded mailboxes (the default) never
     enter this branch. *)
  if Bqueue.is_full t.queue then begin
    t.flow_blocked <- t.flow_blocked + 1;
    if Obs.on o Obs.marks then begin
      let args = match t.name with Some n -> [ ("mailbox", n) ] | None -> [] in
      let track = Core_res.id from in
      Obs.emit o (Instant { name = "flow-block"; track; ts = Obs.now o; args })
    end;
    Bqueue.wait_not_full t.queue
  end;
  match t.faults with
  | None ->
      (* Atomic delivery: the enqueue happens before send returns. *)
      enqueue t ~mid msg
  | Some link ->
      let module I = Hare_fault.Injector in
      if I.down link && unreliable then begin
        I.note_blackholed link;
        fault t ~mid ~copies:0 "fault:blackhole" ~span
      end
      else begin
        let engine = Core_res.engine t.owner in
        let now = Engine.now engine in
        (* A stalled link holds deliveries until the stall lifts; FIFO
           order among held messages follows from event-seq ordering. *)
        let floor =
          let s = I.stalled_until link in
          if s > now then Some s else None
        in
        let deliver_at = function
          | None -> enqueue t ~mid msg
          | Some time ->
              Engine.schedule_at engine
                ~tag:(Engine.tag_deliver t.uid)
                time
                (fun () -> enqueue t ~mid msg)
        in
        match I.on_send link ~unreliable with
        | I.Drop -> fault t ~mid ~copies:0 "fault:drop" ~span
        | I.Deliver -> deliver_at floor
        | I.Duplicate ->
            fault t ~mid ~copies:2 "fault:dup" ~span;
            deliver_at floor;
            deliver_at floor
        | I.Delay extra ->
            fault t ~mid ~copies:1 "fault:delay" ~span;
            let base = match floor with Some s -> s | None -> now in
            deliver_at (Some (Int64.add base extra))
      end

let recv t =
  let msg = Bqueue.pop t.queue in
  note_recv t;
  depth_counter t;
  Core_res.compute t.owner t.costs.recv;
  msg

(* Batch drain: block for the first message, then take whatever else is
   already queued, up to [max]. Only the first message's receive cost is
   charged here (the wakeup); the caller charges the rest one by one as
   it handles them ({!charge_recv}), so the k-th reply's latency is no
   worse than if the messages had been received individually — the
   batch's gain is sharing the context switch and dispatch preamble, not
   reordering costs. With [max = 1] the cost sequence is exactly
   {!recv}'s. *)
let recv_many t ~max =
  let first = Bqueue.pop t.queue in
  note_recv t;
  let rec extra acc n =
    if n >= max then List.rev acc
    else
      match Bqueue.pop_nonblocking t.queue with
      | None -> List.rev acc
      | Some msg ->
          note_recv t;
          extra (msg :: acc) (n + 1)
  in
  let msgs = first :: extra [] 1 in
  depth_counter t;
  Core_res.compute t.owner t.costs.recv;
  msgs

(* Messages past the first in a batch were already sitting in the queue
   when the server woke: they pay the dequeue/decode copy but not the
   notification-and-wakeup path bundled into [recv]. *)
let charge_recv t = Core_res.compute t.owner t.costs.recv_ready

let poll t =
  match Bqueue.pop_nonblocking t.queue with
  | None -> None
  | Some msg ->
      note_recv t;
      depth_counter t;
      Core_res.compute t.owner t.costs.recv;
      Some msg

let drain t =
  let rec go acc =
    match Bqueue.pop_nonblocking t.queue with
    | None -> List.rev acc
    | Some msg ->
        note_recv t;
        go (msg :: acc)
  in
  let msgs = go [] in
  depth_counter t;
  msgs

let pending t = Bqueue.length t.queue

let flow_blocked t = t.flow_blocked

let reset_flow t = t.flow_blocked <- 0
