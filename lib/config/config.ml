type placement =
  | Timeshare
  | Split of int
  | Sharded of { servers : int; vnodes : int }

type exec_policy = Random_placement | Round_robin

type t = {
  ncores : int;
  placement : placement;
  exec_policy : exec_policy;
  cores_per_socket : int;
  dir_distribution : bool;
  dir_broadcast : bool;
  direct_access : bool;
  dir_cache : bool;
  creation_affinity : bool;
  dist_width : int option;
  block_stealing : bool;
  buffer_cache_blocks : int;
  pcache_lines : int;
  shard_plan : string;
  fault_plan : string;
  rpc_deadline : int;
  rpc_retries : int;
  partial_broadcast : bool;
  mailbox_capacity : int;
  deadline_propagation : bool;
  rpc_deadline_max : int;
  retry_budget : int;
  breaker_threshold : int;
  breaker_cooldown : int;
  shed_watermark : int;
  rpc_window : int;
  batch_max : int;
  alloc_extent : int;
  dircache_capacity : int;
  trace_enabled : bool;
  trace_cap : int;
  trace_ring : bool;
  trace_retain : int;
  metrics_interval : int;
  check_enabled : bool;
  seed : int64;
  costs : Costs.t;
}

let default =
  {
    ncores = 40;
    placement = Timeshare;
    exec_policy = Round_robin;
    cores_per_socket = 10;
    dir_distribution = true;
    dir_broadcast = true;
    direct_access = true;
    dir_cache = true;
    creation_affinity = true;
    dist_width = None;
    block_stealing = false;
    (* 2 GB of 4 KiB blocks, as in the paper's setup (§4). *)
    buffer_cache_blocks = 2 * 1024 * 256;
    (* 512 KiB of 64-byte lines per core: the per-core L2 of the E7-4850
       family, the cache level that matters for write-back traffic. *)
    pcache_lines = 8192;
    (* Ring membership static: no server adds/removes, so Sharded
       placement is bit-identical to the equivalent Split. *)
    shard_plan = "";
    (* Fault injection off: empty plan, unbounded RPC waits — the exact
       behaviour of the pre-fault-injection code paths. *)
    fault_plan = "";
    rpc_deadline = 0;
    rpc_retries = 12;
    partial_broadcast = true;
    (* Overload-control knobs all off: unbounded mailboxes, no deadline
       on the wire, retry-deadline cap at the legacy 64x, unlimited
       retries, breakers and load shedding disabled — the exact paper
       behaviour, cycle for cycle. *)
    mailbox_capacity = 0;
    deadline_propagation = false;
    rpc_deadline_max = 0;
    retry_budget = 0;
    breaker_threshold = 0;
    breaker_cooldown = 200_000;
    shed_watermark = 0;
    (* Pipelining/batching/extent knobs at 1 = the paper's strictly
       synchronous one-request-per-message behaviour. *)
    rpc_window = 1;
    batch_max = 1;
    alloc_extent = 1;
    (* 0 = unbounded dircache, the paper-faithful default. *)
    dircache_capacity = 0;
    (* Tracing off by default: no sink is attached, so every
       instrumentation site reduces to a None check. *)
    trace_enabled = false;
    trace_cap = 65536;
    trace_ring = true;
    (* Tail-based span retention off: the trace keeps no slow-op trees
       and the clients skip the admission annotations entirely. *)
    trace_retain = 0;
    (* Time-series telemetry off: no sampler is attached to the event
       loop, so the per-step check reduces to a None match. *)
    metrics_interval = 0;
    (* Sanitizer off by default: no checker is attached, so every hook
       site reduces to a None check. *)
    check_enabled = false;
    seed = 42L;
    costs = Costs.default;
  }

let nservers t =
  match t.placement with
  | Timeshare -> t.ncores
  | Split n -> n
  | Sharded { servers; _ } -> servers

(* Physical server count: logical homes plus the spare servers a shard
   plan will activate mid-run. Equals [nservers] when the plan is empty,
   so membership-stable Sharded matches Split exactly. *)
let physical_servers t =
  match t.placement with
  | Timeshare | Split _ -> nservers t
  | Sharded _ -> nservers t + Hare_place.Place.count_adds t.shard_plan

(* A fault plan must parse and strike only servers that boot. *)
let check_fault_plan t =
  let n = physical_servers t in
  match Hare_fault.Plan.parse t.fault_plan with
  | Error e -> Error ("bad fault plan: " ^ e)
  | Ok { events; _ } -> (
      match List.find_opt (fun (e : Hare_fault.Plan.server_event) -> e.ev_sid >= n) events with
      | Some e ->
          Error (Printf.sprintf "fault plan targets fs%d but only %d server(s) exist" e.ev_sid n)
      | None -> Ok ())

(* ---------- the knob table ------------------------------------------ *)

type bound = Positive | Zero_means of string

type setting =
  | Int of { docv : string; bound : bound; get : t -> int; set : t -> int -> t }
  | Switch of (t -> t)

type knob = {
  field : string;
  flag : string;
  doc : string;
  setting : setting;
  technique : string option;
}

let int ?(docv = "N") field flag bound doc get set =
  { field; flag; doc; setting = Int { docv; bound; get; set }; technique = None }

let switch ?technique field flag doc set =
  { field; flag; doc; setting = Switch set; technique }

let knobs =
  [
    switch ~technique:"Directory distribution" "dir_distribution" "no-dist"
      "Disable directory distribution." (fun c -> { c with dir_distribution = false });
    switch ~technique:"Directory broadcast" "dir_broadcast" "no-broadcast"
      "Disable directory broadcast." (fun c -> { c with dir_broadcast = false });
    switch ~technique:"Direct cache access" "direct_access" "no-direct"
      "Disable direct buffer-cache access." (fun c -> { c with direct_access = false });
    switch ~technique:"Directory cache" "dir_cache" "no-dircache"
      "Disable the directory cache." (fun c -> { c with dir_cache = false });
    switch ~technique:"Creation affinity" "creation_affinity" "no-affinity"
      "Disable creation affinity." (fun c -> { c with creation_affinity = false });
    (* [None] spans every server, so it always meets the bound. *)
    int ~docv:"W" "dist_width" "width" Positive
      "Distribute each directory over only $(docv) servers (extension, paper §6)."
      (fun c -> Option.value c.dist_width ~default:1)
      (fun c w -> { c with dist_width = Some w });
    switch "block_stealing" "steal"
      "Enable block stealing between servers (extension, §3.2)."
      (fun c -> { c with block_stealing = true });
    int "rpc_retries" "retries" Positive "RPC attempts before giving up with EIO."
      (fun c -> c.rpc_retries) (fun c n -> { c with rpc_retries = n });
    switch "partial_broadcast" "strict-broadcast"
      "Fail broadcasts with EIO instead of returning partial results."
      (fun c -> { c with partial_broadcast = false });
    int ~docv:"W" "rpc_window" "window" Positive "rpc_window (1 = synchronous)."
      (fun c -> c.rpc_window) (fun c n -> { c with rpc_window = n });
    int ~docv:"B" "batch_max" "batch" Positive "batch_max (1 = one request per wakeup)."
      (fun c -> c.batch_max) (fun c n -> { c with batch_max = n });
    int ~docv:"E" "alloc_extent" "extent" Positive "alloc_extent (1 = block-at-a-time)."
      (fun c -> c.alloc_extent) (fun c n -> { c with alloc_extent = n });
    int "dircache_capacity" "dircache-capacity" (Zero_means "unbounded")
      "Bound the client dircache (0 = unbounded)."
      (fun c -> c.dircache_capacity) (fun c n -> { c with dircache_capacity = n });
    int ~docv:"CYCLES" "rpc_deadline_max" "deadline-max" (Zero_means "64x rpc_deadline")
      "Ceiling on the backed-off retry deadline."
      (fun c -> c.rpc_deadline_max) (fun c n -> { c with rpc_deadline_max = n });
    int "mailbox_capacity" "capacity" (Zero_means "unbounded")
      "Server mailbox capacity; senders without a credit park until a slot \
       frees (0 = unbounded)."
      (fun c -> c.mailbox_capacity) (fun c n -> { c with mailbox_capacity = n });
    int "retry_budget" "retry-budget" (Zero_means "unlimited")
      "Per-server retry budget; an empty bucket turns timeouts into \
       immediate give-ups (0 = unlimited)."
      (fun c -> c.retry_budget) (fun c n -> { c with retry_budget = n });
    int "breaker_threshold" "breaker" (Zero_means "breakers off")
      "Consecutive give-ups that open a per-server circuit breaker (0 = disabled)."
      (fun c -> c.breaker_threshold) (fun c n -> { c with breaker_threshold = n });
    int ~docv:"CYCLES" "breaker_cooldown" "cooldown" Positive
      "How long an open breaker fast-fails before probing."
      (fun c -> c.breaker_cooldown) (fun c n -> { c with breaker_cooldown = n });
    int "shed_watermark" "watermark" (Zero_means "shedding off")
      "Server queue depth above which background (then data) requests are \
       shed with EBUSY (0 = disabled)."
      (fun c -> c.shed_watermark) (fun c n -> { c with shed_watermark = n });
    int "trace_cap" "trace-cap" (Zero_means "empty span ring, profile-only")
      "Trace ring-buffer capacity in events (with --trace); the oldest \
       events are dropped (and counted) beyond it. 0 = no span ring: the \
       export is a clean metadata-only artifact."
      (fun c -> c.trace_cap) (fun c n -> { c with trace_cap = n });
    int ~docv:"K" "trace_retain" "retain" (Zero_means "retention off")
      "Keep the complete span trees of the $(docv) slowest ops per latency \
       class, for --blame."
      (fun c -> c.trace_retain) (fun c k -> { c with trace_retain = k });
  ]

let bound_error t k =
  match k.setting with
  | Int { bound = Positive; get; _ } when get t < 1 ->
      Some (k.field ^ " must be at least 1")
  | Int { bound = Zero_means zero; get; _ } when get t < 0 ->
      Some (Printf.sprintf "%s must be non-negative (0 = %s)" k.field zero)
  | Int _ | Switch _ -> None

(* The table's bounds first, then the fields without a flag and the rules
   that tie fields together. *)
let validate t =
  let bound = List.find_map (bound_error t) knobs in
  if Option.is_some bound then Error (Option.get bound)
  else if t.ncores <= 0 then Error "ncores must be positive"
  else if t.cores_per_socket <= 0 then Error "cores_per_socket must be positive"
  else if t.buffer_cache_blocks <= 0 then Error "buffer cache must be non-empty"
  else if t.pcache_lines <= 0 then Error "private cache must be non-empty"
  else if t.rpc_deadline < 0 then Error "rpc_deadline must be non-negative"
  else if t.fault_plan <> "" && t.rpc_deadline = 0 then
    Error "a fault plan requires rpc_deadline > 0 (clients must retry)"
  else if t.rpc_deadline_max > 0 && t.rpc_deadline_max < t.rpc_deadline then
    Error "rpc_deadline_max must be at least rpc_deadline"
  else if t.deadline_propagation && t.rpc_deadline = 0 then
    Error "deadline_propagation requires rpc_deadline > 0"
  else if (t.retry_budget > 0 || t.breaker_threshold > 0) && t.rpc_deadline = 0
  then
    Error
      "retry budgets and circuit breakers require rpc_deadline > 0 (they act \
       on retry decisions)"
  else if t.trace_retain > 0 && not t.trace_enabled then
    Error "trace_retain requires trace_enabled (retention lives in the trace)"
  else if t.metrics_interval < 0 then
    Error "metrics_interval must be non-negative (0 = metrics off)"
  else if
    t.shard_plan <> ""
    && match t.placement with Sharded _ -> false | _ -> true
  then Error "a shard plan requires Sharded placement"
  else
    match t.placement with
    | Timeshare -> check_fault_plan t
    | Split n ->
        if n <= 0 then Error "split server count must be positive"
        else if n >= t.ncores then
          Error "split must leave at least one application core"
        else check_fault_plan t
    | Sharded { servers; vnodes } -> (
        if servers <= 0 then Error "sharded server count must be positive"
        else if vnodes <= 0 then
          Error "sharded vnodes must be positive"
        else
          match Hare_place.Place.parse_plan t.shard_plan with
          | Error e -> Error e
          | Ok events ->
              let removes = List.filter_map
                  (function
                    | Hare_place.Place.Remove { sid; _ } -> Some sid
                    | Hare_place.Place.Add _ -> None)
                  events
              in
              let nphys = physical_servers t in
              if nphys >= t.ncores then
                Error
                  "sharded must leave at least one application core (servers \
                   plus planned adds exceed cores)"
              else if List.exists (fun sid -> sid < 0 || sid >= nphys) removes
              then Error "shard plan removes a server id outside the ring"
              else if
                List.length (List.sort_uniq compare removes)
                <> List.length removes
              then Error "shard plan removes the same server twice"
              else if List.length removes >= nphys then
                Error "shard plan must leave at least one server in the ring"
              else check_fault_plan t)

let server_cores t = List.init (physical_servers t) Fun.id

let app_cores t =
  match t.placement with
  | Timeshare -> List.init t.ncores Fun.id
  | Split _ | Sharded _ ->
      let n = physical_servers t in
      List.init (t.ncores - n) (fun i -> n + i)

let socket_of_core t core = core / t.cores_per_socket
