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

let v ?ncores ?placement ?exec_policy ?seed () =
  let t = default in
  let t = match ncores with Some n -> { t with ncores = n } | None -> t in
  let t = match placement with Some p -> { t with placement = p } | None -> t in
  let t =
    match exec_policy with Some p -> { t with exec_policy = p } | None -> t
  in
  match seed with Some s -> { t with seed = s } | None -> t

let validate t =
  if t.ncores <= 0 then Error "ncores must be positive"
  else if t.cores_per_socket <= 0 then Error "cores_per_socket must be positive"
  else if t.buffer_cache_blocks <= 0 then Error "buffer cache must be non-empty"
  else if t.pcache_lines <= 0 then Error "private cache must be non-empty"
  else if t.rpc_deadline < 0 then Error "rpc_deadline must be non-negative"
  else if t.rpc_retries <= 0 then Error "rpc_retries must be positive"
  else if t.fault_plan <> "" && t.rpc_deadline = 0 then
    Error "a fault plan requires rpc_deadline > 0 (clients must retry)"
  else if t.mailbox_capacity < 0 then
    Error "mailbox_capacity must be non-negative (0 = unbounded)"
  else if t.rpc_deadline_max < 0 then
    Error "rpc_deadline_max must be non-negative (0 = 64x rpc_deadline)"
  else if t.rpc_deadline_max > 0 && t.rpc_deadline_max < t.rpc_deadline then
    Error "rpc_deadline_max must be at least rpc_deadline"
  else if t.retry_budget < 0 then
    Error "retry_budget must be non-negative (0 = unlimited)"
  else if t.breaker_threshold < 0 then
    Error "breaker_threshold must be non-negative (0 = breakers off)"
  else if t.breaker_threshold > 0 && t.breaker_cooldown <= 0 then
    Error "breaker_cooldown must be positive when breakers are enabled"
  else if t.shed_watermark < 0 then
    Error "shed_watermark must be non-negative (0 = shedding off)"
  else if t.deadline_propagation && t.rpc_deadline = 0 then
    Error "deadline_propagation requires rpc_deadline > 0"
  else if (t.retry_budget > 0 || t.breaker_threshold > 0) && t.rpc_deadline = 0
  then
    Error
      "retry budgets and circuit breakers require rpc_deadline > 0 (they act \
       on retry decisions)"
  else if t.rpc_window < 1 then Error "rpc_window must be at least 1"
  else if t.batch_max < 1 then Error "batch_max must be at least 1"
  else if t.alloc_extent < 1 then Error "alloc_extent must be at least 1"
  else if t.dircache_capacity < 0 then
    Error "dircache_capacity must be non-negative (0 = unbounded)"
  else if t.trace_cap < 0 then
    Error "trace_cap must be non-negative (0 = empty span ring, profile-only)"
  else if t.trace_retain < 0 then
    Error "trace_retain must be non-negative (0 = retention off)"
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
    | Timeshare -> Ok ()
    | Split n ->
        if n <= 0 then Error "split server count must be positive"
        else if n >= t.ncores then
          Error "split must leave at least one application core"
        else Ok ()
    | Sharded { servers; vnodes } -> (
        if servers <= 0 then Error "sharded server count must be positive"
        else if vnodes <= 0 then
          Error "sharded vnodes must be positive"
        else
          match Hare_place.Place.parse_plan t.shard_plan with
          | Error e -> Error e
          | Ok events ->
              let adds =
                List.fold_left
                  (fun n -> function
                    | Hare_place.Place.Add _ -> n + 1
                    | Hare_place.Place.Remove _ -> n)
                  0 events
              in
              let removes = List.filter_map
                  (function
                    | Hare_place.Place.Remove { sid; _ } -> Some sid
                    | Hare_place.Place.Add _ -> None)
                  events
              in
              let nphys = servers + adds in
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
              else Ok ())

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
  | Timeshare -> t.ncores
  | Split n -> n
  | Sharded { servers; _ } ->
      servers + Hare_place.Place.count_adds t.shard_plan

let server_cores t =
  match t.placement with
  | Timeshare -> List.init t.ncores Fun.id
  | Split _ | Sharded _ -> List.init (physical_servers t) Fun.id

let app_cores t =
  match t.placement with
  | Timeshare -> List.init t.ncores Fun.id
  | Split _ | Sharded _ ->
      let n = physical_servers t in
      List.init (t.ncores - n) (fun i -> n + i)

let socket_of_core t core = core / t.cores_per_socket
