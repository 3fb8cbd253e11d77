open Hare_sim
open Hare_proto
module Rpc = Hare_msg.Rpc
module Robust = Hare_stats.Robust
module Perf = Hare_stats.Perf
module Config = Hare_config.Config

(* Per-server circuit breaker (PR 6): consecutive give-ups trip it open,
   and while open every retryable RPC to that server fast-fails with
   [EIO] instead of burning a full timeout ladder. After the cooldown a
   single probe is admitted (half-open); its fate decides whether the
   breaker closes or re-opens. Inert unless [breaker_threshold > 0]. *)
type breaker_state = Br_closed | Br_open of int64 | Br_half_open

(* One physical server's overload control: its breaker and its retry
   budget (inert unless [retry_budget > 0]). *)
type guard = {
  mutable br_state : breaker_state;
  mutable br_fails : int;  (* consecutive give-ups while closed *)
  mutable tokens : int;  (* retry tokens left *)
  mutable successes : int;  (* since the budget's last refill *)
}

(* One copy of a request on the wire. Resends build a fresh copy that
   keeps the tag: the server deduplicates every copy of one tag, so the
   operation takes effect exactly once however many copies arrive. *)
type pending = {
  home : int;  (* logical home, re-routed at every resend *)
  req : Wire.fs_req;
  meta : Rpc.meta option;  (* idempotency tag; [None] = reliable send *)
  ep : int;  (* physical server this copy went to; -1 = fast-failed *)
  future : Wire.fs_resp Ivar.t;
  span : int;  (* bus request id the copy carried; 0 = unobserved *)
}

type t = {
  engine : Engine.t;
  config : Config.t;
  costs : Hare_config.Costs.t;
  core : Core_res.t;
  (* [servers] is indexed by PHYSICAL server id; callers speak LOGICAL
     home ids, which are stable forever. [place] maps home -> physical
     endpoint; absent under static placements (identity). *)
  servers : (Wire.fs_req, Wire.fs_resp) Rpc.t array;
  place : Hare_place.Place.t option;
  robust : Robust.t;
  perf : Perf.t;
  (* Retry protocol, armed only when [rpc_deadline > 0]: requests carry a
     (client, seq) idempotency tag, time out, and are resent with bounded
     exponential backoff. The RNG is dedicated to backoff jitter so that
     injected faults never perturb a workload's own random stream. *)
  base : int;  (* first-attempt deadline, in cycles; 0 = no retries *)
  attempts : int;  (* attempts before giving up with [EIO] *)
  cap : int;  (* ceiling on per-attempt deadline growth *)
  rng : Rng.t;
  mutable seq : int;
  mutable ack : int;
      (* completed low-water mark: every seq <= ack has a final outcome
         (reply in hand or given up) and will never be resent. Rides
         outgoing metas so servers can bound their dedup tables. *)
  done_seqs : unit Tbl.Int.t;
      (* completed seqs above the low-water mark, waiting for the gap
         below them (a still-inflight deferred request) to close *)
  (* overload control (PR 6); all inert at the default knob settings *)
  guards : guard array;  (* one per physical server *)
  mutable open_breakers : int;
      (* breakers currently in [Br_open], maintained at every transition
         so the metrics gauge is an O(1) read, not an O(nservers) scan *)
  (* the deferral window (rpc_window > 1): sent, not yet awaited, with
     the inode the request mutates and its stale-token step *)
  window : (pending * Types.ino option * (unit -> unit)) Queue.t;
  mutable rpc_count : int;
  mutable moved_retries : int;  (* EMOVED bounces chased to the new owner *)
}

let create ~engine ~(config : Config.t) ~cid ~core ~servers ?place ~robust
    ~perf () =
  {
    engine;
    config;
    costs = config.costs;
    core;
    servers;
    place;
    robust;
    perf;
    base = config.rpc_deadline;
    attempts = config.rpc_retries;
    cap =
      (* The legacy implicit ceiling (64x the base deadline) unless an
         explicit [rpc_deadline_max] caps backoff growth. *)
      (if config.rpc_deadline_max > 0 then config.rpc_deadline_max
       else config.rpc_deadline * 64);
    rng =
      Rng.create
        ~seed:
          (Int64.add config.seed (Int64.of_int ((cid * 2654435761) + 0x5e7)));
    seq = 0;
    ack = 0;
    done_seqs = Tbl.Int.create 16;
    guards =
      Array.init (Array.length servers) (fun _ ->
          let tokens = config.retry_budget in
          { br_state = Br_closed; br_fails = 0; tokens; successes = 0 });
    open_breakers = 0;
    window = Queue.create ();
    rpc_count = 0;
    moved_retries = 0;
  }

let rpc_count t = t.rpc_count

let moved_retries t = t.moved_retries

let open_breakers t = t.open_breakers

(* A crashed server forgets descriptor tokens; under the retry protocol
   (fault plans) [EBADF] means "recover", never in a fault-free run. *)
let stale_token t e = e = Errno.EBADF && t.base > 0

let obs t = Engine.obs t.engine

let instant t name args =
  let o = obs t in
  if o.Obs.wanted land Obs.marks <> 0 then
    Obs.emit o (Instant { name; track = Core_res.id t.core; ts = Obs.now o; args })

(* Report a pause of [cycles] before a resend, then take it. *)
let pause t name req cycles =
  let o = obs t in
  if o.Obs.wanted land Obs.spans <> 0 then
    Obs.emit o (Wait { fid = Engine.current_fid t.engine; cycles });
  instant t name [ ("op", (Wire.info req).name) ];
  Engine.sleep_on t.engine cycles

(* Logical home -> physical endpoint index, re-read at every send so a
   rebalance takes effect on the next copy. *)
let phys t home =
  match t.place with Some p -> Hare_place.Place.phys p home | None -> home

(* Record that [seq]'s outcome is final. The low-water mark only
   advances contiguously: a deferred request still in flight below a
   completed one pins the ack until it too resolves, because its tag
   could still be retransmitted at await time. *)
let note_done t seq =
  if seq > t.ack then begin
    Tbl.Int.replace t.done_seqs seq ();
    while Tbl.Int.mem t.done_seqs (t.ack + 1) do
      Tbl.Int.remove t.done_seqs (t.ack + 1);
      t.ack <- t.ack + 1
    done
  end

(* ---------- overload control: breakers and retry budgets --------------- *)

let breaker_enabled t = t.config.breaker_threshold > 0

let breaker_instant t name srv =
  instant t name [ ("server", string_of_int srv) ]

(* Admission decision for a retryable RPC to [srv]: [true] = send it.
   An open breaker fast-fails callers until its cooldown elapses, then
   admits exactly one probe (half-open); further calls keep fast-failing
   until the probe's fate resolves the state. *)
let breaker_admit t srv =
  (not (breaker_enabled t))
  ||
  let br = t.guards.(srv) in
  match br.br_state with
  | Br_closed -> true
  | Br_half_open -> false (* a probe is already in flight *)
  | Br_open until ->
      if Engine.now t.engine >= until then begin
        br.br_state <- Br_half_open;
        t.open_breakers <- t.open_breakers - 1;
        Robust.incr t.robust Robust.breaker_half_opens;
        breaker_instant t "breaker-half-open" srv;
        true
      end
      else false

(* Open [srv]'s breaker from [Br_closed] or [Br_half_open] — a new open,
   never a re-count. *)
let breaker_open t srv =
  let br = t.guards.(srv) in
  br.br_state <-
    Br_open
      (Int64.add (Engine.now t.engine)
         (Int64.of_int t.config.breaker_cooldown));
  br.br_fails <- 0;
  t.open_breakers <- t.open_breakers + 1;
  Robust.incr t.robust Robust.breaker_opens;
  breaker_instant t "breaker-open" srv

(* Called when an RPC exhausts its retries (or its retry budget): a
   give-up is the breaker's failure unit, not a single timeout. *)
let breaker_failure t srv =
  if breaker_enabled t then begin
    let br = t.guards.(srv) in
    match br.br_state with
    | Br_half_open -> breaker_open t srv (* the probe failed: back to open *)
    | Br_closed ->
        br.br_fails <- br.br_fails + 1;
        if br.br_fails >= t.config.breaker_threshold then breaker_open t srv
    | Br_open _ -> ()
  end

let trip_breaker t srv =
  if breaker_enabled t then
    match t.guards.(srv).br_state with
    | Br_open _ -> ()
    | Br_closed | Br_half_open -> breaker_open t srv

(* One retransmission costs one token; an empty bucket converts the
   retry into an immediate give-up, so a dead or drowning server cannot
   consume unbounded retry capacity. Successes refill the bucket slowly
   (one token per ten), keeping the steady-state retry rate a small
   fraction of goodput. *)
let budget_take t srv =
  let g = t.guards.(srv) in
  if t.config.retry_budget = 0 then true
  else if g.tokens > 0 then begin
    g.tokens <- g.tokens - 1;
    true
  end
  else begin
    Robust.incr t.robust Robust.budget_denied;
    false
  end

(* Any delivered reply — even a server-side errno — proves the server is
   alive, so it counts as breaker and budget success. *)
let note_success t srv =
  if breaker_enabled t then begin
    let g = t.guards.(srv) in
    (match g.br_state with
    | Br_half_open ->
        Robust.incr t.robust Robust.breaker_closes;
        breaker_instant t "breaker-close" srv
    | Br_open _ -> t.open_breakers <- t.open_breakers - 1
    | Br_closed -> ());
    g.br_state <- Br_closed;
    g.br_fails <- 0
  end;
  let cap = t.config.retry_budget in
  if cap > 0 then begin
    let g = t.guards.(srv) in
    g.successes <- g.successes + 1;
    if g.successes mod 10 = 0 && g.tokens < cap then g.tokens <- g.tokens + 1
  end

(* ---------- send / await ------------------------------------------------ *)

(* Absolute deadline to ride a copy whose reply is awaited for [deadline]
   cycles from now: the server drops the copy unserved if it is still
   queued past this instant. 0 = none. *)
let propagated t deadline =
  if deadline > 0 && t.config.deadline_propagation then
    Int64.add (Engine.now t.engine) (Int64.of_int deadline)
  else 0L

(* Message size beyond the header: a write carries its data. *)
let payload_lines (req : Wire.fs_req) =
  match req with
  | Wire.Write_fd { data; _ } | Wire.Pipe_write { data; _ } ->
      Some ((String.length data / 64) + 1)
  | _ -> None

(* Put one copy of [req] on the wire to [home]'s current owner; its
   reply fills [slot] when given. *)
let transmit t ?slot ~deadline ~meta home req =
  let ep = phys t home in
  (* Admission annotation for tail retention: the physical server
     this copy is headed to and the queue depth it meets at admission. *)
  let o = obs t in
  if o.Obs.wanted land Obs.spans <> 0 then begin
    let fid = Engine.current_fid t.engine and depth = Rpc.pending t.servers.(ep) in
    Obs.emit o (Send_target { fid; srv = ep; depth })
  end;
  let future, span =
    Rpc.call_async t.servers.(ep) ~from:t.core
      ?payload_lines:(payload_lines req) ?meta ~home ?slot
      ~abs_deadline:(propagated t deadline) req
  in
  { home; req; meta; ep; future; span }

(* Another copy of [c]'s request. A timeout's resend shares [c]'s reply
   slot: the server may still answer an earlier copy, or replay its
   answer to a duplicate, and either must reach the caller. A bounce's
   resend needs a fresh slot, since the bounce filled [c]'s. *)
let resend t ?slot c deadline =
  transmit t ?slot ~deadline ~meta:c.meta c.home c.req

let send t ~deferred home req =
  t.rpc_count <- t.rpc_count + 1;
  let tagged = t.base > 0 && (Wire.info req).retryable in
  if tagged && not (breaker_admit t (phys t home)) then begin
    Robust.incr t.robust Robust.fast_fails;
    instant t "fast-fail"
      [ ("op", (Wire.info req).name); ("server", string_of_int (phys t home)) ];
    { home; req; meta = None; ep = -1; future = Ivar.create (); span = 0 }
  end
  else begin
    (* The tag is fixed here, at the first copy, so every later copy —
       however late its await — is deduplicated against this one. *)
    let meta =
      if not tagged then None
      else begin
        t.seq <- t.seq + 1;
        Some { Rpc.m_seq = t.seq; m_ack = t.ack }
      end
    in
    (* A deferred copy's timer starts only at await time, so it carries
       no deadline of its own. *)
    transmit t ~deadline:(if tagged && not deferred then t.base else 0) ~meta
      home req
  end

(* Fixed pause before chasing an EMOVED bounce: long enough to let the
   coordinator's Install_shard land at the new owner, short enough to be
   invisible next to a timeout ladder. *)
let moved_backoff = 200

let moved_cap = 1000

(* Wait for copy [c], [n] timeouts and [moved] bounces into its request;
   [deadline] bounds this copy's wait (cycles, 0 = unbounded). Only a
   deferred first copy can have its reply in hand ([poll]): a resend is
   awaited the moment it is sent. *)
let rec attempt t ?(poll = false) c ~moved n deadline =
  if poll && Ivar.is_filled c.future then
    delivered t c ~moved n deadline
      (Rpc.await ~from:t.core ~costs:t.costs ~span:c.span ~poll:true c.future)
  else if deadline = 0 then
    delivered t c ~moved n deadline
      (Rpc.await ~from:t.core ~costs:t.costs ~span:c.span c.future)
  else
    match
      Rpc.await_deadline ~engine:t.engine ~from:t.core ~costs:t.costs
        ~deadline:(Int64.of_int deadline) ~span:c.span c.future
    with
    | Ok resp -> delivered t c ~moved n deadline resp
    | Error `Timeout -> timed_out t c ~moved n deadline

and delivered t c ~moved n deadline resp =
  note_success t c.ep;
  match resp with
  | Error Errno.EMOVED when moved < moved_cap ->
      (* The home migrated between our route read and the server's
         ownership check. Nothing executed and nothing was recorded under
         our tag, so resend — same tag — after the route settles. Bounces
         are not failures: they neither count against the attempt ladder
         nor pass admission again. *)
      t.rpc_count <- t.rpc_count + 1;
      t.moved_retries <- t.moved_retries + 1;
      pause t "rpc-moved" c.req moved_backoff;
      attempt t (resend t c deadline) ~moved:(moved + 1) n deadline
  | Error Errno.EMOVED -> Error Errno.EIO
  | resp -> resp

and timed_out t c ~moved n deadline =
  Robust.incr t.robust Robust.timeouts;
  if n + 1 >= t.attempts || not (budget_take t c.ep) then begin
    Robust.incr t.robust Robust.giveups;
    breaker_failure t c.ep;
    Error Errno.EIO
  end
  else begin
    Robust.incr t.robust Robust.retries;
    t.rpc_count <- t.rpc_count + 1;
    (* Jittered backoff: desynchronizes clients hammering a recovering
       server. *)
    pause t "rpc-retry" c.req (1 + Rng.int t.rng (Int.max 2 (deadline / 4)));
    let deadline = Int.min (deadline * 2) t.cap in
    attempt t (resend t ~slot:c.future c deadline) ~moved (n + 1) deadline
  end

let await t ?poll c =
  match c.meta with
  | _ when c.ep < 0 -> Error Errno.EIO
  | None -> attempt t ?poll c ~moved:0 0 0
  | Some m ->
      let resp = attempt t ?poll c ~moved:0 0 t.base in
      (* Whatever [resp] is — success, bounce cap, or give-up — this tag
         is finished: no further copy will ever be sent. *)
      note_done t m.m_seq;
      resp

let call t home req = await t (send t ~deferred:false home req)

(* ---------- the deferral window ---------------------------------------- *)

(* Observe (and discard) the oldest deferred reply. Failures of a
   deferred close/unlink cannot be raised at the syscall that issued
   them — that syscall already returned — so they surface as a counter,
   like an asynchronous close. *)
let await_oldest t =
  match Queue.take_opt t.window with
  | None -> ()
  | Some (c, _, on_stale) -> (
      match await t ~poll:true c with
      | Ok _ -> ()
      | Error e when stale_token t e -> (
          (* The server crashed and forgot the token/inode; the restart
             already reclaimed whatever the deferred op would have, apart
             from what [on_stale] still has to report. *)
          try on_stale ()
          with Errno.Error _ -> Perf.incr t.perf Perf.deferred_errors)
      | Error _ -> Perf.incr t.perf Perf.deferred_errors)

let drain_window t =
  while not (Queue.is_empty t.window) do
    await_oldest t
  done

(* Per-inode ordering barrier. Atomic delivery keeps same-server
   requests FIFO, but a retransmission (fault plans only) re-sends an
   unacked deferred request arbitrarily late — possibly after a later
   request touching the same inode, e.g. a retried [Close_fd] landing
   its stale [size] after a reopen appended data. Before re-opening an
   inode, wait out any deferred request that mutates it. *)
let drain_ino t ino =
  let touches () =
    Queue.fold
      (fun acc (_, i, _) ->
        acc || match i with Some i -> Types.equal_ino i ino | None -> false)
      false t.window
  in
  while touches () do
    await_oldest t
  done

let defer t ?ino ?(on_stale = ignore) home req =
  let cap = t.config.rpc_window in
  if cap <= 1 then Some (call t home req)
  else begin
    while Queue.length t.window >= cap do
      await_oldest t
    done;
    let c = send t ~deferred:true home req in
    if c.ep < 0 then Some (Error Errno.EIO)
    else begin
      Queue.push (c, ino, on_stale) t.window;
      Perf.incr t.perf Perf.deferred;
      Perf.note_window t.perf (Queue.length t.window);
      None
    end
  end

(* Legs in flight at once: all of them when directory broadcast is on
   and sends are reliable (§3.6.2); up to [rpc_window] deferred legs
   under the retry protocol, each with its own tag and ladder; one at a
   time otherwise. *)
let multicast t homes req =
  let deferred, cap =
    if not t.config.dir_broadcast then (false, 1)
    else if t.base = 0 then (false, max_int)
    else if t.config.rpc_window > 1 then (true, t.config.rpc_window)
    else (false, 1)
  in
  let poll = if deferred then Some true else None in
  (* Legs land in send order, so the next one to land is leg [!landed]. *)
  let inflight = Queue.create () and landed = ref 0 in
  let results = Array.make (List.length homes) (Error Errno.EIO) in
  let settle () =
    results.(!landed) <- await t ?poll (Queue.pop inflight);
    incr landed
  in
  List.iter
    (fun home ->
      if Queue.length inflight >= cap then settle ();
      Queue.push (send t ~deferred home req) inflight;
      if deferred then
        Perf.note_window t.perf (Queue.length inflight))
    homes;
  while not (Queue.is_empty inflight) do
    settle ()
  done;
  Array.to_list results
