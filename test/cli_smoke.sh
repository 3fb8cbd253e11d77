#!/bin/sh
# Smoke test of the hare_cli command line: every composition below must
# exit with its documented code (0 clean, 1 failure or bad arguments,
# 2 explore bad arguments), and a scripted shell session must print
# what it wrote. Usage: cli_smoke.sh PATH/TO/hare_cli.exe
cli=$1
fail=0
expect() {
  want=$1
  shift
  "$cli" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: hare_cli $* exited $got, expected $want"
    fail=1
  fi
}
expect 0 run creates --cores 2 --profile --check --robust
expect 0 run fsstress --cores 3 --plan "crash:1@200000+100000" --robust --check
expect 0 run overload --cores 4 --robust --perf --metrics 20000 --retain 8 --blame --check
expect 0 run creates --cores 4 --shard 2 --shard-plan "add@100000" --ring --check
expect 0 run renames --cores 2 --world linux --verbose
expect 0 run writes --cores 2 --trace trace_smoke.json --trace-cap 0 --strict
# A crash under extent leases, and one under deferred closes: a direct
# writer keeps writing into its lease after the restart, and a deferred
# close still reports its size.
expect 0 run writes --cores 4 --seed 1 --no-preset --plan "crash:0@300000+200000" --extent 8 --check
expect 0 run extract --cores 4 --seed 2 --window 8 --plan "crash:0@300000+200000" --check
# Runs that free blocks and allocate them again, so the servers give
# freed blocks' DRAM pages back and reuse them: extent leases reclaimed
# at close, blocks stolen between partitions, and a crash rebuild.
expect 0 run all --cores 8 --window 8 --batch 8 --extent 8 --check
expect 0 run all --cores 4 --steal --robust --check
expect 0 run fsstress --cores 4 --seed 1 --plan "crash:2@1000000+300000" --robust --check
# A crash of the server that has just adopted a migrated home: the
# crash and restart walk the adopted home's directories.
expect 0 run "rm dense" --cores 4 --seed 1 --shard 2 --shard-plan "add@200000" --plan "crash:2@400000+100000" --check
# The open-time invalidation lint looks at each block before the charge
# lets another process on the core refill it with current data.
expect 0 run "build linux" --cores 8 --seed 1 --no-preset --check
# A retransmission shares its first copy's reply slot, so a late reply
# to an earlier copy, or the dedup replay a duplicate gets, still
# reaches the waiting client.
expect 0 run "build linux" --cores 8 --seed 3 --plan "drop:fs:0.03;dup:fs:0.03"
# A run whose workload dies (a cc child's EIO under wire drops, exit
# 125 from the uncaught fiber failure) still writes its reports: the
# trace holds the proc-errno instant that explains it.
rm -f t.json
expect 125 run "build linux" --cores 8 --plan "drop:fs:0.05" --seed 1 --trace t.json
if ! grep -q '"proc-errno"' t.json 2>/dev/null; then
  echo "FAIL: the failed run's trace t.json lacks the proc-errno instant"
  fail=1
fi
# Each config flag no line above passes, once, on a small run.
for flags in --no-dist --no-broadcast --no-direct --no-dircache --no-affinity --steal \
  --strict-broadcast "--dircache-capacity 16" \
  "--deadline-max 100000 --deadline 20000" "--capacity 4" "--cooldown 50000" \
  "--watermark 8" "--retry-budget 4 --deadline 20000" \
  "--breaker 3 --deadline 20000" "--world unfs"; do
  # shellcheck disable=SC2086 # each entry is a list of flags
  expect 0 run creates --cores 4 $flags
done
expect 0 run overload --cores 4 --period 40000
expect 1 run nosuch --cores 2
expect 1 run creates --cores 2 --plan "drop:fs:1.5"
expect 1 run creates --cores 2 --plan "drop:fs:0.1" --deadline 0
expect 1 run creates --cores 4 --plan "crash:9@1000+1000"
expect 1 run creates --cores 2 --trace trace_smoke.json --strict --trace-cap 16
expect 1 run creates --cores 2 --plan "drop:fs:1.0" --deadline 2000 --retries 2
expect 1 run creates --cores 2 --world linux --robust
expect 1 run creates --cores 2 --blame
expect 1 run creates --cores 2 --ring
expect 1 run all --cores 2 --trace trace_smoke.json
expect 1 run creates --cores 2 --series series_smoke.json
expect 1 run creates --cores 2 --strict
expect 1 run creates --cores 2 --width 0
expect 1 run creates --cores 2 --scale 0
expect 1 run creates --cores 2 --nprocs 0
# One refused value per validated range (a negative value needs the
# '=' form: '--capacity -1' is a command-line parse error, exit 124).
expect 1 run creates --cores 4 --capacity=-1
expect 1 run creates --cores 4 --window 0
expect 1 run creates --cores 4 --retry-budget 4
expect 1 run creates --cores 4 --world unfs --robust
# A configuration that one workload of 'run all' cannot take (overload's
# preset boots one file server, and the plan crashes fs1) is refused
# before any workload runs: exit 1 and no bench line.
out=$("$cli" run all --cores 8 --seed 3 --plan "crash:1@300000+200000" --robust 2>/dev/null)
rc=$?
if [ "$rc" -ne 1 ] || printf '%s\n' "$out" | grep -q 'ops/s'; then
  echo "FAIL: run all with a plan that overload's preset refuses exited $rc; expected 1 before any bench line"
  fail=1
fi
expect 1 fig 99
# explore's refusals exit 2. Only an unknown scenario or mutation points
# at 'explore --list', which lists exactly those: refused HINT ARGS...
# checks the exit code and whether stderr carries the hint (yes/no).
refused() {
  hint=$1
  shift
  err=$("$cli" "$@" 2>&1 >/dev/null)
  got=$?
  if printf '%s\n' "$err" | grep -q -e '--list shows the choices'; then
    has=yes
  else
    has=no
  fi
  if [ "$got" -ne 2 ] || [ "$has" != "$hint" ]; then
    echo "FAIL: hare_cli $* exited $got with hint $has, expected 2 with hint $hint: $err"
    fail=1
  fi
}
refused yes explore nosuch
refused yes explore collide --mutate nosuch
refused no explore collide --strategy foo
refused no explore collide --replay 0,x
# A replayed ordinal that its tie does not have, and an empty budget.
refused no explore handoff --replay 99
refused no explore handoff --replay 0,-1
refused no explore handoff --budget 0
# The interactive shell on a scripted stdin: it must exit 0, the first
# cat must print the file and the cat after the rename must fail with
# the name of the lookup request.
out=$(printf 'mkdir /a\nwrite /a/f hello\ncat /a/f\nls /a\nmv /a/f /a/g\ncat /a/f\nspawn 2\ntime\nexit\n' \
  | "$cli" shell 2>&1)
rc=$?
cats=$(printf '%s\n' "$out" | sed 's/^\(hare:[^ ]*> \)*//' \
  | grep -x -e hello -e 'error: ENOENT (LOOKUP)' | tr '\n' '|')
if [ "$rc" -ne 0 ] || [ "$cats" != "hello|error: ENOENT (LOOKUP)|" ]; then
  echo "FAIL: hare_cli shell exited $rc, cat output '$cats'"
  fail=1
fi
exit $fail
