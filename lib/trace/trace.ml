(* Span tracing + cycle attribution: a subscriber of the engine's
   observer bus. Pure host-side bookkeeping: nothing here touches the
   simulated clock, cores, or RNGs — see trace.mli for the
   zero-perturbation invariant. *)

module Obs = Hare_sim.Obs

type bucket = Obs.bucket = Compute | Send | Queue | Dispatch | Cache | Dram

let nbuckets = 6

let bucket_index = function
  | Compute -> 0
  | Send -> 1
  | Queue -> 2
  | Dispatch -> 3
  | Cache -> 4
  | Dram -> 5

let bucket_names = [ "compute"; "send"; "queue"; "dispatch"; "cache"; "dram" ]

type event =
  | Span of {
      id : int;
      parent : int;
      name : string;
      cat : string;
      track : int;
      t0 : int64;
      t1 : int64;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      track : int;
      ts : int64;
      args : (string * string) list;
    }
  | Counter of { name : string; track : int; ts : int64; value : int }

(* An open attribution context for one fiber. Cycle counts are native
   ints (cycle totals stay far below 2^62): an [int64 array] stores
   boxed values, so charging a bucket on every compute allocated — ints
   in a flat array do not. All fields are mutable because contexts are
   recycled in place: a fiber opens and closes one per syscall, and the
   closed record (plus its buckets array) stays parked in the fid slot
   for the next open instead of becoming garbage. *)
type ctx = {
  mutable c_open : bool;
  mutable c_depth : int; (* nested opens folded into this one *)
  mutable c_op : string;
  mutable c_track : int;
  mutable c_span : int;
  mutable c_parent : int;
  mutable c_t0 : int;
  mutable c_args : (string * string) list;
  mutable c_buckets : int array;
  (* Decomposition of the fiber's next compute charge; cleared by
     [on_compute]. *)
  mutable c_pending : (bucket * int) list;
  (* Tail forensics (PR 9): admission annotations recorded by the client
     at RPC send time, -1 = never sent. [c_srv]/[c_qdepth] freeze at the
     first send (the admission decision); [c_last_srv] tracks the most
     recent send so blocked-wait grants can be attributed to a server. *)
  mutable c_srv : int;
  mutable c_qdepth : int;
  mutable c_last_srv : int;
  mutable c_children : (int * int) list;
      (* (server, cycles granted from its breakdown), newest first *)
}

(* Per-opcode profile accumulator. *)
type agg = {
  mutable a_count : int;
  mutable a_total : int;
  a_buckets : int array;
}

(* A retained span tree (PR 9): the complete record of one slow root
   syscall, kept only while it remains among the slowest [retain] ops of
   its class (Dapper-style tail-based retention). The six-bucket vector
   sums to [rt_dur] exactly (ctx_close charges the remainder to Queue),
   so sorting it yields the critical path through the request. *)
type retained = {
  rt_op : string;
  rt_cls : string;
  rt_t0 : int;
  rt_dur : int;
  rt_buckets : int array;
  rt_srv : int;  (* physical server of the first RPC; -1 = none sent *)
  rt_qdepth : int;  (* that server's queue depth at admission; -1 *)
  rt_children : (int * int) list;
      (* per-RPC server grants (server, cycles), oldest first *)
}

(* Keep-k-slowest store for one class: a flat array with a tracked
   minimum. [cap] is small (tens), so the O(cap) min rescan on evict is
   cheaper than heap bookkeeping on the hot close path. *)
type rstore = {
  rs_cap : int;
  mutable rs_items : retained array;
  mutable rs_len : int;
  mutable rs_min : int;  (* index of the smallest rt_dur when full *)
}

(* Event kind tags for the flattened ring. *)
let k_span = '\000'

let k_instant = '\001'

let k_counter = '\002'

type t = {
  cap : int;
  (* When false the trace is profile-only: attribution contexts and the
     per-opcode aggregate run as usual but no events are written to the
     ring (and the ring arrays are empty). *)
  ring : bool;
  (* The ring is a struct-of-arrays, not an [event array]: keeping tens
     of thousands of live event records (each with boxed int64 stamps)
     made every minor collection promote the ring's whole working set —
     the dominant cost of traced runs. Flat int/string arrays retain
     nothing the GC must trace per event; [event] records materialize
     only on export ({!events}). Writers set exactly the fields their
     kind reads back, so stale values from overwritten slots are never
     observed. *)
  e_kind : Bytes.t;
  e_name : string array;
  e_cat : string array; (* spans *)
  e_track : int array;
  e_t0 : int array; (* span start / instant / counter timestamp *)
  e_t1 : int array; (* span end *)
  e_id : int array; (* spans *)
  e_parent : int array; (* spans *)
  e_value : int array; (* counters *)
  e_args : (string * string) list array; (* spans + instants *)
  mutable head : int; (* index of oldest event when full *)
  mutable len : int;
  mutable dropped : int;
  bus : Obs.t; (* span ids come from the bus's request-id sequence *)
  mutable track_names : (int * string) list; (* reversed declaration order *)
  mutable ctxs : ctx option array; (* fiber id -> open context *)
  (* request span id -> bucket breakdown recorded by the server side,
     consumed by the client's blocked-await. Open-addressed (linear
     probing; 0 = empty, -1 = tombstone — span ids are positive) because
     a Hashtbl paid an allocation per insert on every traced RPC. *)
  mutable sd_keys : int array;
  mutable sd_vals : int array array;
  mutable sd_count : int;
  mutable sd_tombs : int;
  profile : (string, agg) Hashtbl.t;
  (* Root-span (syscall) completion log: op name, start stamp, duration.
     Latency percentiles come from here rather than the event ring, so
     they survive profile-only mode and never lose samples to ring
     overwrite. Cleared alongside the profile at timed-region start. *)
  mutable lat_ops : string array;
  mutable lat_t0 : int array;
  mutable lat_dur : int array;
  mutable lat_len : int;
  (* Tail-based retention: slowest-[retain] root spans per class, with
     their full bucket vectors and admission annotations. 0 = off. *)
  retain : int;
  retained_tbl : (string, rstore) Hashtbl.t;
}

let make ~retain ~cap bus =
  if cap < 0 then invalid_arg "Trace.create: cap must be non-negative";
  if retain < 0 then invalid_arg "Trace.create: retain must be non-negative";
  (* cap 0 = no span ring: profile-only, so exports are cleanly
     metadata-only instead of a validation failure. *)
  {
    cap;
    ring = cap > 0;
    e_kind = Bytes.make cap k_counter;
    e_name = Array.make cap "";
    e_cat = Array.make cap "";
    e_track = Array.make cap 0;
    e_t0 = Array.make cap 0;
    e_t1 = Array.make cap 0;
    e_id = Array.make cap 0;
    e_parent = Array.make cap 0;
    e_value = Array.make cap 0;
    e_args = Array.make cap [];
    head = 0;
    len = 0;
    dropped = 0;
    bus;
    track_names = [];
    ctxs = Array.make 1024 None;
    sd_keys = Array.make 512 0;
    sd_vals = Array.make 512 [||];
    sd_count = 0;
    sd_tombs = 0;
    profile = Hashtbl.create 64;
    lat_ops = [||];
    lat_t0 = [||];
    lat_dur = [||];
    lat_len = 0;
    retain;
    retained_tbl = Hashtbl.create 4;
  }

(* Fiber ids index [ctxs] directly: contexts open and close on every
   syscall, and a Hashtbl round trip per lookup dominated traced runs.
   The array grows to the highest fid seen with an open context — one
   word per fiber ever spawned, reclaimed with the trace. Closed
   contexts stay in their slot with [c_open = false] awaiting reuse, so
   the match below must check the flag, and must return the stored
   option as-is (no fresh [Some] allocation). *)
let[@inline] ctx_find t fid =
  if fid >= 0 && fid < Array.length t.ctxs then
    match Array.unsafe_get t.ctxs fid with
    | Some c as s -> if c.c_open then s else None
    | None -> None
  else None

let ctx_set t fid c =
  let n = Array.length t.ctxs in
  if fid >= n then begin
    let n' = ref (n * 2) in
    while fid >= !n' do
      n' := !n' * 2
    done;
    let ctxs' = Array.make !n' None in
    Array.blit t.ctxs 0 ctxs' 0 n;
    t.ctxs <- ctxs'
  end;
  t.ctxs.(fid) <- c

let declare_track t ~track ~name =
  if not (List.mem_assoc track t.track_names) then
    t.track_names <- (track, name) :: t.track_names

let tracks t = List.rev t.track_names

let dropped t = t.dropped

let ring_enabled t = t.ring

(* Claim the ring slot for the next event (overwriting the oldest when
   full) and return its index. *)
let[@inline] slot t =
  if t.len < t.cap then begin
    let i = t.head + t.len in
    let i = if i >= t.cap then i - t.cap else i in
    t.len <- t.len + 1;
    i
  end
  else begin
    let i = t.head in
    let h = t.head + 1 in
    t.head <- (if h = t.cap then 0 else h);
    t.dropped <- t.dropped + 1;
    i
  end

let event_at t j =
  let name = t.e_name.(j)
  and track = t.e_track.(j)
  and t0 = Int64.of_int t.e_t0.(j) in
  match Bytes.get t.e_kind j with
  | c when c = k_counter ->
      Counter { name; track; ts = t0; value = t.e_value.(j) }
  | c when c = k_instant ->
      Instant { name; track; ts = t0; args = t.e_args.(j) }
  | _ ->
      Span
        {
          id = t.e_id.(j);
          parent = t.e_parent.(j);
          name;
          cat = t.e_cat.(j);
          track;
          t0;
          t1 = Int64.of_int t.e_t1.(j);
          args = t.e_args.(j);
        }

let events t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let j = t.head + i in
    let j = if j >= t.cap then j - t.cap else j in
    out := event_at t j :: !out
  done;
  !out

let instant t ~name ~track ~ts args =
  if t.ring then begin
    let i = slot t in
    Bytes.unsafe_set t.e_kind i k_instant;
    Array.unsafe_set t.e_name i name;
    Array.unsafe_set t.e_track i track;
    Array.unsafe_set t.e_t0 i ts;
    Array.unsafe_set t.e_args i args
  end

let counter t ~name ~track ~ts ~value =
  if t.ring then begin
    let i = slot t in
    Bytes.unsafe_set t.e_kind i k_counter;
    Array.unsafe_set t.e_name i name;
    Array.unsafe_set t.e_track i track;
    Array.unsafe_set t.e_t0 i ts;
    Array.unsafe_set t.e_value i value
  end

(* --- attribution contexts ------------------------------------------- *)

(* Open a context for fiber [fid] with the given decomposition of its
   next compute charge. A fiber that already has an open context (one
   traced syscall calling another, e.g. process-exit close) nests: the
   inner open and its close fold into the outer span. *)
let ctx_open t ~fid ~op ~track ~parent ~now ~args ~pending =
  match ctx_find t fid with
  | Some c -> c.c_depth <- c.c_depth + 1
  | None when fid < 0 -> ()
  | None ->
    let span = Obs.fresh_span t.bus in
    let args = if t.ring then args () else [] in
    (* Reuse the parked context from this fiber's last operation when
       there is one; a fresh record is only paid once per fiber. *)
    (match if fid < Array.length t.ctxs then t.ctxs.(fid) else None with
    | Some c ->
        c.c_open <- true;
        c.c_depth <- 0;
        c.c_op <- op;
        c.c_track <- track;
        c.c_span <- span;
        c.c_parent <- parent;
        c.c_t0 <- now;
        c.c_args <- args;
        Array.fill c.c_buckets 0 nbuckets 0;
        c.c_pending <- pending;
        c.c_srv <- -1;
        c.c_qdepth <- -1;
        c.c_last_srv <- -1;
        c.c_children <- []
    | None ->
        ctx_set t fid
          (Some
             {
               c_open = true;
               c_depth = 0;
               c_op = op;
               c_track = track;
               c_span = span;
               c_parent = parent;
               c_t0 = now;
               c_args = args;
               c_buckets = Array.make nbuckets 0;
               c_pending = pending;
               c_srv = -1;
               c_qdepth = -1;
               c_last_srv = -1;
               c_children = [];
             }))

let[@inline] charge ctx b cy =
  if cy > 0 then begin
    let i = bucket_index b in
    Array.unsafe_set ctx.c_buckets i (Array.unsafe_get ctx.c_buckets i + cy)
  end

let on_compute t ~fid ~elapsed ~cost ~switch =
  match ctx_find t fid with
  | None -> ()
  | Some ctx ->
      (* Backlog waiting for the core before our charge started. *)
      charge ctx Queue (elapsed - cost);
      charge ctx Dispatch switch;
      let base = cost - switch in
      (* Spread [base] over the pending decomposition; uncovered cycles
         default to Compute. Pending parts are caller estimates of the
         same charge, so cap at what actually remains. *)
      let remaining = ref base in
      List.iter
        (fun (b, cy) ->
          let grant = if cy < !remaining then cy else !remaining in
          charge ctx b grant;
          remaining := !remaining - grant)
        ctx.c_pending;
      charge ctx Compute !remaining;
      ctx.c_pending <- []

(* Client hook, called at RPC send time: freeze the admission target and
   queue depth on the first send of the open context, and remember the
   most recent target so the blocked-wait grant can be attributed. Only
   meaningful under tail retention; host-side only. *)
let note_send t ~fid ~srv ~depth =
  match ctx_find t fid with
  | None -> ()
  | Some ctx ->
      if ctx.c_srv < 0 then begin
        ctx.c_srv <- srv;
        ctx.c_qdepth <- depth
      end;
      ctx.c_last_srv <- srv

(* --- the server-done table ------------------------------------------ *)

let[@inline] sd_slot t span = span * 0x2545F491 land (Array.length t.sd_keys - 1)

(* Slot holding [span], or -1. *)
let sd_find t span =
  let mask = Array.length t.sd_keys - 1 in
  let rec probe i =
    match Array.unsafe_get t.sd_keys i with
    | 0 -> -1
    | k when k = span -> i
    | _ -> probe ((i + 1) land mask)
  in
  probe (sd_slot t span)

let sd_rehash t size =
  let old_keys = t.sd_keys and old_vals = t.sd_vals in
  t.sd_keys <- Array.make size 0;
  t.sd_vals <- Array.make size [||];
  t.sd_tombs <- 0;
  let mask = size - 1 in
  Array.iteri
    (fun i k ->
      if k > 0 then begin
        let j = ref (k * 0x2545F491 land mask) in
        while t.sd_keys.(!j) <> 0 do
          j := (!j + 1) land mask
        done;
        t.sd_keys.(!j) <- k;
        t.sd_vals.(!j) <- old_vals.(i)
      end)
    old_keys

let sd_put t span v =
  let size = Array.length t.sd_keys in
  if (t.sd_count + t.sd_tombs + 1) * 4 >= size * 3 then
    sd_rehash t (if (t.sd_count + 1) * 2 >= size then size * 2 else size);
  let mask = Array.length t.sd_keys - 1 in
  let rec probe i free =
    match Array.unsafe_get t.sd_keys i with
    | 0 ->
        let i = if free >= 0 then free else i in
        if t.sd_keys.(i) = -1 then t.sd_tombs <- t.sd_tombs - 1;
        t.sd_keys.(i) <- span;
        t.sd_vals.(i) <- v;
        t.sd_count <- t.sd_count + 1
    | k when k = span -> t.sd_vals.(i) <- v
    | -1 -> probe ((i + 1) land mask) (if free >= 0 then free else i)
    | _ -> probe ((i + 1) land mask) free
  in
  probe (sd_slot t span) (-1)

(* Find-and-remove: each breakdown is consumed by exactly one await. *)
let sd_take t span =
  let i = sd_find t span in
  if i < 0 then None
  else begin
    let v = t.sd_vals.(i) in
    t.sd_keys.(i) <- -1;
    t.sd_vals.(i) <- [||];
    t.sd_count <- t.sd_count - 1;
    t.sd_tombs <- t.sd_tombs + 1;
    Some v
  end

(* Keep the table bounded: requests whose reply is lost (crash,
   blackhole) leave entries behind. Past the high-water mark, drop the
   older (smaller-span) half. *)
let prune_server_done t =
  if t.sd_count > 8192 then begin
    let spans = ref [] in
    Array.iter (fun k -> if k > 0 then spans := k :: !spans) t.sd_keys;
    let sorted = List.sort compare !spans in
    let cutoff = List.nth sorted (List.length sorted / 2) in
    List.iter (fun s -> if s < cutoff then ignore (sd_take t s)) sorted
  end

let blocked_priority = [ Dispatch; Compute; Cache; Dram; Send; Queue ]

let on_blocked t ~fid ~span ~elapsed =
  let breakdown = if span = 0 then None else sd_take t span in
  match ctx_find t fid with
  | None -> ()
  | Some ctx ->
      let remaining = ref elapsed in
      (match breakdown with
      | Some srv ->
          (* Grant the server's buckets, capped at the observed wait. *)
          List.iter
            (fun b ->
              let cy = srv.(bucket_index b) in
              let grant = if cy < !remaining then cy else !remaining in
              charge ctx b grant;
              remaining := !remaining - grant)
            blocked_priority
      | None -> ());
      (* Under tail retention, remember which server the grant came from
         (the last send target): this is the span tree the blame report
         walks. The grant is exact for synchronous RPCs (rpc_window 1);
         with a wider window it attributes to the most recent send. *)
      (if t.retain > 0 && ctx.c_last_srv >= 0 then
         let granted = elapsed - !remaining in
         if granted > 0 then
           ctx.c_children <- (ctx.c_last_srv, granted) :: ctx.c_children);
      charge ctx Queue !remaining

let bucket_sum buckets = Array.fold_left ( + ) 0 buckets

let profile_add t ctx elapsed =
  let agg =
    match Hashtbl.find_opt t.profile ctx.c_op with
    | Some a -> a
    | None ->
        let a = { a_count = 0; a_total = 0; a_buckets = Array.make nbuckets 0 } in
        Hashtbl.replace t.profile ctx.c_op a;
        a
  in
  agg.a_count <- agg.a_count + 1;
  agg.a_total <- agg.a_total + elapsed;
  Array.iteri
    (fun i cy -> agg.a_buckets.(i) <- agg.a_buckets.(i) + cy)
    ctx.c_buckets

let lat_push t op t0 dur =
  let n = Array.length t.lat_ops in
  if t.lat_len = n then begin
    let n' = if n = 0 then 1024 else n * 2 in
    let ops' = Array.make n' ""
    and t0' = Array.make n' 0
    and dur' = Array.make n' 0 in
    Array.blit t.lat_ops 0 ops' 0 n;
    Array.blit t.lat_t0 0 t0' 0 n;
    Array.blit t.lat_dur 0 dur' 0 n;
    t.lat_ops <- ops';
    t.lat_t0 <- t0';
    t.lat_dur <- dur'
  end;
  t.lat_ops.(t.lat_len) <- op;
  t.lat_t0.(t.lat_len) <- t0;
  t.lat_dur.(t.lat_len) <- dur;
  t.lat_len <- t.lat_len + 1

(* --- tail-based retention (PR 9) ------------------------------------ *)

let rs_rescan_min rs =
  let m = ref 0 in
  for i = 1 to rs.rs_len - 1 do
    if rs.rs_items.(i).rt_dur < rs.rs_items.(!m).rt_dur then m := i
  done;
  rs.rs_min <- !m

(* Admit [ctx]'s completed root span to its class store iff it is among
   the slowest [retain] seen so far; the bucket vector is copied because
   the context (and its array) is recycled on the fiber's next open. *)
let retain_push t ctx elapsed =
  match Hare_stats.Latency.class_of_op ctx.c_op with
  | None -> ()
  | Some cls ->
      let rs =
        match Hashtbl.find_opt t.retained_tbl cls with
        | Some rs -> rs
        | None ->
            let rs =
              {
                rs_cap = t.retain;
                rs_items = [||];
                rs_len = 0;
                rs_min = 0;
              }
            in
            Hashtbl.replace t.retained_tbl cls rs;
            rs
      in
      let full = rs.rs_len >= rs.rs_cap in
      if (not full) || elapsed > rs.rs_items.(rs.rs_min).rt_dur then begin
        let item =
          {
            rt_op = ctx.c_op;
            rt_cls = cls;
            rt_t0 = ctx.c_t0;
            rt_dur = elapsed;
            rt_buckets = Array.copy ctx.c_buckets;
            rt_srv = ctx.c_srv;
            rt_qdepth = ctx.c_qdepth;
            rt_children = List.rev ctx.c_children;
          }
        in
        if full then begin
          rs.rs_items.(rs.rs_min) <- item;
          rs_rescan_min rs
        end
        else begin
          (if rs.rs_len = Array.length rs.rs_items then
             let n = Array.length rs.rs_items in
             let n' = min rs.rs_cap (max 8 (n * 2)) in
             let items' = Array.make n' item in
             Array.blit rs.rs_items 0 items' 0 n;
             rs.rs_items <- items');
          rs.rs_items.(rs.rs_len) <- item;
          rs.rs_len <- rs.rs_len + 1;
          if rs.rs_len = rs.rs_cap then rs_rescan_min rs
        end
      end

let retained t =
  Hashtbl.fold
    (fun _ rs acc ->
      let items = ref acc in
      for i = rs.rs_len - 1 downto 0 do
        items := rs.rs_items.(i) :: !items
      done;
      !items)
    t.retained_tbl []
  |> List.sort (fun a b ->
         match compare b.rt_dur a.rt_dur with
         | 0 -> compare a.rt_t0 b.rt_t0
         | c -> c)

(* Close fiber [fid]'s context (or fold a nested close into it).
   Uncovered wall time — mailbox waits, reply latency not explained by
   the server breakdown — is queue-wait, so the bucket sum equals
   elapsed exactly, by construction. A root syscall span feeds the
   latency log; a server span leaves its breakdown for the requester's
   blocked-await. *)
let ctx_close t ~fid ~now ~server =
  match ctx_find t fid with
  | None -> ()
  | Some ctx when ctx.c_depth > 0 -> ctx.c_depth <- ctx.c_depth - 1
  | Some ctx ->
      (* Park the record in its slot for the fiber's next open. *)
      ctx.c_open <- false;
      let elapsed = now - ctx.c_t0 in
      charge ctx Queue (elapsed - bucket_sum ctx.c_buckets);
      profile_add t ctx elapsed;
      if (not server) && ctx.c_parent = 0 then begin
        lat_push t ctx.c_op ctx.c_t0 elapsed;
        if t.retain > 0 then retain_push t ctx elapsed
      end;
      if server && ctx.c_parent <> 0 then begin
        (* Hand the buckets array itself to the server-done table (the
           context is recycled, so it gets a fresh one) rather than
           copying. *)
        sd_put t ctx.c_parent ctx.c_buckets;
        ctx.c_buckets <- Array.make nbuckets 0;
        prune_server_done t
      end;
      if t.ring then begin
        let i = slot t in
        Bytes.unsafe_set t.e_kind i k_span;
        Array.unsafe_set t.e_name i ctx.c_op;
        Array.unsafe_set t.e_cat i (if server then "server" else "syscall");
        Array.unsafe_set t.e_track i ctx.c_track;
        Array.unsafe_set t.e_t0 i ctx.c_t0;
        Array.unsafe_set t.e_t1 i now;
        Array.unsafe_set t.e_id i ctx.c_span;
        Array.unsafe_set t.e_parent i ctx.c_parent;
        Array.unsafe_set t.e_args i ctx.c_args
      end

(* --- the bus subscriber --------------------------------------------- *)

let on_event t (ev : Obs.event) =
  match ev with
  | Span_open { fid; op; track; parent; ts; args; pending } ->
      ctx_open t ~fid ~op ~track ~parent ~now:ts ~args ~pending
  | Span_close { fid; ts; server } -> ctx_close t ~fid ~now:ts ~server
  | Pending { fid; parts } -> (
      match ctx_find t fid with Some c -> c.c_pending <- parts | None -> ())
  | Blocked { fid; id; waited } -> on_blocked t ~fid ~span:id ~elapsed:waited
  | Cpu { fid; track; now; start; finish; cost; switch; switched } ->
      on_compute t ~fid ~elapsed:(finish - now) ~cost ~switch;
      if switched then instant t ~name:"ctx-switch" ~track ~ts:start [];
      (* Busy square wave: the core occupies [start, finish). *)
      counter t ~name:"cpu" ~track ~ts:start ~value:1;
      counter t ~name:"cpu" ~track ~ts:finish ~value:0
  | Wait { fid; cycles } -> (
      match ctx_find t fid with Some c -> charge c Queue cycles | None -> ())
  | Send_target { fid; srv; depth } ->
      if t.retain > 0 then note_send t ~fid ~srv ~depth
  | Counter { name; track; ts; value } -> counter t ~name ~track ~ts ~value
  | Instant { name; track; ts; args } -> instant t ~name ~track ~ts args
  | _ -> ()

(* --- consumers ------------------------------------------------------ *)

type row = {
  r_op : string;
  r_count : int;
  r_total : int64;
  r_buckets : int64 array;
}

let profile t =
  Hashtbl.fold
    (fun op a acc ->
      {
        r_op = op;
        r_count = a.a_count;
        r_total = Int64.of_int a.a_total;
        r_buckets = Array.map Int64.of_int a.a_buckets;
      }
      :: acc)
    t.profile []
  |> List.sort (fun a b ->
         match compare b.r_total a.r_total with
         | 0 -> compare a.r_op b.r_op
         | c -> c)

let print_profile head rows =
  let per_bucket = Array.make nbuckets 0L in
  List.iter
    (fun r -> Array.iteri (fun i c -> per_bucket.(i) <- Int64.add per_bucket.(i) c) r.r_buckets)
    rows;
  let grand = List.fold_left (fun acc r -> Int64.add acc r.r_total) 0L rows in
  let cells total buckets =
    Int64.to_string total :: Array.to_list (Array.map Int64.to_string buckets)
  in
  Printf.printf "%s, %Ld attributed cycles\n" head grand;
  Hare_stats.Table.print
    ~headers:([ "op"; "count"; "cycles" ] @ bucket_names)
    (List.map (fun r -> r.r_op :: string_of_int r.r_count :: cells r.r_total r.r_buckets) rows
    @ [ "TOTAL" :: "" :: cells grand per_bucket ]);
  let unattributed = Int64.sub grand (Array.fold_left Int64.add 0L per_bucket) in
  Printf.printf "unattributed cycles: %Ld (of %Ld)\n" unattributed grand;
  unattributed

let row_to_json r =
  let open Hare_stats.Json in
  let i64 x = Int (Int64.to_int x) in
  Object
    ([ ("op", String r.r_op); ("count", Int r.r_count); ("cycles", i64 r.r_total) ]
    @ List.mapi (fun k name -> (name, i64 r.r_buckets.(k))) bucket_names)

let reset_profile t =
  Hashtbl.reset t.profile;
  t.lat_len <- 0;
  (* Retention follows the latency log: a timed region blames only its
     own tail, not setup's. *)
  Hashtbl.reset t.retained_tbl

let root_spans t =
  List.init t.lat_len (fun i ->
      (t.lat_ops.(i), Int64.of_int t.lat_t0.(i), Int64.of_int t.lat_dur.(i)))

let event_ts = function
  | Span { t0; _ } -> t0
  | Instant { ts; _ } -> ts
  | Counter { ts; _ } -> ts

let event_json ev =
  let open Hare_stats.Json in
  let event name cat ph ts fields =
    Object
      ([ ("name", String name); ("cat", String cat); ("ph", String ph);
         ("ts", Int (Int64.to_int ts)) ]
      @ fields)
  in
  let on track = [ ("pid", Int 0); ("tid", Int track) ] in
  let args kvs = ("args", Object (List.map (fun (k, v) -> (k, String v)) kvs)) in
  match ev with
  | Span { id; parent; name; cat; track; t0; t1; args = a } ->
      let a = if parent <> 0 then ("parent", string_of_int parent) :: a else a in
      event name cat "X" t0
        ((("dur", Int (Int64.to_int (Int64.sub t1 t0))) :: on track)
        @ [ ("id", Int id); args a ])
  | Instant { name; track; ts; args = a } ->
      event name "event" "i" ts (on track @ [ ("s", String "t"); args a ])
  | Counter { name; track; ts; value } ->
      event name "counter" "C" ts
        (on track @ [ ("args", Object [ ("value", Int value) ]) ])

let to_chrome_json t =
  let open Hare_stats.Json in
  let meta kind tid name =
    Object
      ([ ("name", String kind); ("ph", String "M"); ("pid", Int 0) ]
      @ tid @ [ ("args", Object [ ("name", String name) ]) ])
  in
  let buf = Buffer.create 65536 in
  stream_objects buf "traceEvents" (fun emit ->
      emit (meta "process_name" [] "hare");
      List.iter
        (fun (track, name) -> emit (meta "thread_name" [ ("tid", Int track) ] name))
        (tracks t);
      List.iter
        (fun ev -> emit (event_json ev))
        (List.stable_sort
           (fun a b -> Int64.compare (event_ts a) (event_ts b))
           (events t)));
  Buffer.contents buf

let recent_spans t ~per_track =
  (* Newest-first scan, keep up to [per_track] spans per track, then
     restore chronological order. *)
  let counts = Hashtbl.create 16 in
  let kept =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Span { name; track; t0; t1; id; _ } ->
            let n = Option.value ~default:0 (Hashtbl.find_opt counts track) in
            if n < per_track then begin
              Hashtbl.replace counts track (n + 1);
              (track, t0, t1, id, name) :: acc
            end
            else acc
        | _ -> acc)
      []
      (List.rev (events t))
  in
  List.map
    (fun (track, t0, t1, id, name) ->
      Printf.sprintf "track %d: [%Ld..%Ld] span#%d %s" track t0 t1 id name)
    kept

let create ?(retain = 0) ~cap bus =
  let t = make ~retain ~cap bus in
  Obs.subscribe bus Obs.(spans lor marks) (on_event t) ~diagnose:(fun () ->
      match recent_spans t ~per_track:4 with
      | [] -> None
      | lines -> Some ("recent spans: " ^ String.concat "; " lines));
  t
