open Hare_sim

type meta = {
  m_seq : int;
  m_ack : int;
      (* the client's completed low-water mark: every seq <= m_ack has
         its final outcome and will never be retransmitted, so servers
         may purge those dedup entries (bounded idempotency memory) *)
}

(* The sender builds the request as the server will see it, reply
   function included, so receiving copies nothing. *)
type ('req, 'resp) request = {
  body : 'req;
  reply : ?payload_lines:int -> 'resp -> unit;
  home : int; (* the logical home the sender addressed; -1 = none *)
  sender : int; (* the sending core's id *)
  meta : meta option;
  span : int; (* request id on the observer bus; 0 = unobserved *)
  deadline : int64; (* absolute expiry on the simulated clock; 0 = none *)
}

type ('req, 'resp) t = {
  mailbox : ('req, 'resp) request Mailbox.t;
  costs : Hare_config.Costs.t;
  mutable peak : int; (* deepest queue observed at send time (host-side) *)
}

let endpoint ?name ?capacity ?faults ~owner ~costs () =
  {
    mailbox = Mailbox.create ?name ?capacity ?faults ~owner ~costs ();
    costs;
    peak = 0;
  }

let unwatch t = Mailbox.unwatch t.mailbox

let rewatch t = Mailbox.rewatch t.mailbox

let obs core = Engine.obs (Core_res.engine core)

(* Observer-path fiber id: an O(1) engine field read, not a [Self]
   effect round trip — these sites fire on every observed RPC. *)
let fid core = Engine.current_fid (Core_res.engine core)

(* The response is a message from the endpoint's core back to the
   caller; the responder pays the send cost. *)
let reply_fn t ~slot ~tagged ~span ?(payload_lines = 0) resp =
  let owner = Mailbox.owner t.mailbox in
  let cost =
    t.costs.Hare_config.Costs.send
    + (payload_lines * t.costs.Hare_config.Costs.msg_per_line)
  in
  let o = obs owner in
  if o.Obs.wanted land Obs.spans <> 0 then
    Obs.emit o (Pending { fid = fid owner; parts = [ (Send, cost) ] });
  Core_res.compute owner cost;
  if tagged && Ivar.is_filled slot then
    (* A duplicated copy of a request we already answered; the caller
       has its response, so this fill would be a double-assignment. *)
    ()
  else begin
    if o.Obs.wanted land Obs.msgs <> 0 then
      Obs.emit o (Reply_fill { id = span; core = Core_res.id owner });
    Ivar.fill slot resp
  end

let call_async t ~from ?payload_lines ?meta ?(home = -1) ?slot ~abs_deadline
    req =
  (* Allocate a request id so the server-side work (trace) and the
     reply edge (sanitizer) can be tied back to this call. *)
  let o = obs from in
  let span =
    if o.Obs.wanted land Obs.(msgs lor spans) <> 0 then Obs.fresh_span o else 0
  in
  let slot = match slot with Some s -> s | None -> Ivar.create () in
  (* Only meta-tagged (retryable) requests are fair game for the fault
     injector; everything else keeps the atomic-delivery guarantee. *)
  let tagged = meta <> None in
  Mailbox.send t.mailbox ~from ?payload_lines ~unreliable:tagged ~span
    {
      body = req;
      reply =
        (fun ?payload_lines resp ->
          reply_fn t ~slot ~tagged ~span ?payload_lines resp);
      home;
      sender = Core_res.id from;
      meta;
      span;
      deadline = abs_deadline;
    };
  let depth = Mailbox.pending t.mailbox in
  if depth > t.peak then t.peak <- depth;
  (slot, span)

let since engine b0 = Engine.now_cycles engine - b0

(* The reply is in hand: report the cycles the fiber was parked on it
   since [b0] (the trace attributes them from the server-recorded
   breakdown; the sanitizer joins the reply's stamp), then charge the
   receive [cost]. *)
let received ~engine ~from ~cost ~span ~b0 =
  let o = Engine.obs engine in
  if o.Obs.wanted land Obs.spans <> 0 then begin
    let fid = fid from in
    Obs.emit o (Blocked { fid; id = span; waited = since engine b0 });
    Obs.emit o (Pending { fid; parts = [ (Send, cost) ] })
  end;
  if o.Obs.wanted land Obs.msgs <> 0 then
    Obs.emit o (Reply_read { id = span; core = Core_res.id from });
  Core_res.compute from cost

let await ~from ~costs ~span ?(poll = false) future =
  let engine = Core_res.engine from in
  let b0 = Engine.now_cycles engine in
  if poll && Ivar.is_filled future then begin
    (* The reply landed while the caller was still computing: consuming
       it is a poll of a ready slot, not a blocking receive — no
       notification/wakeup path, just the copy. The server's cycles
       overlapped the caller's own compute, so the breakdown recorded
       for the span is discarded (elapsed 0). *)
    received ~engine ~from ~cost:costs.Hare_config.Costs.recv_ready ~span ~b0;
    Ivar.read future
  end
  else begin
    let resp = Ivar.read future in
    received ~engine ~from ~cost:costs.Hare_config.Costs.recv ~span ~b0;
    resp
  end

let await_deadline ~engine ~from ~costs ~deadline ~span future =
  let b0 = Engine.now_cycles engine in
  match Ivar.read_deadline future ~engine ~cycles:deadline with
  | Some resp ->
      received ~engine ~from ~cost:costs.Hare_config.Costs.recv ~span ~b0;
      Ok resp
  | None ->
      (* Timed out: nothing came back, the whole wait is queueing. *)
      let o = Engine.obs engine in
      if o.Obs.wanted land Obs.spans <> 0 then
        Obs.emit o (Wait { fid = fid from; cycles = since engine b0 });
      Error `Timeout

let call t ~from ?payload_lines ?home req =
  let future, span =
    call_async t ~from ?payload_lines ?home ~abs_deadline:0L req
  in
  await ~from ~costs:t.costs ~span future

let recv_full t = Mailbox.recv t.mailbox

let recv_batch_full t ~max = Mailbox.recv_many t.mailbox ~max

let charge_recv t = Mailbox.charge_recv t.mailbox

let recv t =
  let r = recv_full t in
  (r.body, r.reply)

let drain_pending t = Mailbox.drain t.mailbox

let pending t = Mailbox.pending t.mailbox

let peak_pending t = t.peak

let reset_peak t = t.peak <- 0

let flow_blocked t = Mailbox.flow_blocked t.mailbox

let reset_flow t = Mailbox.reset_flow t.mailbox
