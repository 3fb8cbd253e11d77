include Counters.Make ()

let drops = key "msgs dropped"
let dups = key "msgs duplicated"
let delays = key "msgs delayed"
let blackholed = key "msgs blackholed"
let timeouts = key "rpc timeouts"
let retries = key "rpc retries"
let giveups = key "rpc giveups"
let dedup_hits = key "dedup hits"
let crashes = key "server crashes"
let restarts = key "server restarts"
let aborted = key "requests aborted"
let tokens_recovered = key "tokens recovered"
let cache_flushes = key "dircache flushes"
let partial_broadcasts = key "partial broadcasts"
let blocks_rebuilt = key "blocks rebuilt"
let flow_blocks = key "sends credit-blocked"
let shed_expired = key "shed expired"
let shed_load = key "shed overload"
let fast_fails = key "breaker fast-fails"
let budget_denied = key "retry budget denials"
let breaker_opens = key "breaker opens"
let breaker_half_opens = key "breaker half-opens"
let breaker_closes = key "breaker closes"

let pp ppf t =
  let nonzero = List.filter (fun (_, n) -> n <> 0) (to_list t) in
  if nonzero = [] then Format.pp_print_string ppf "no faults"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf (k, n) -> Format.fprintf ppf "%s=%d" k n)
      ppf nonzero
