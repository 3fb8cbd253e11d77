#!/bin/sh
# Golden report outputs: runs seven `hare_cli run` report compositions,
# the quick bench JSON and twelve `hare_cli explore` runs, and diffs
# each output against its committed expected text (one NAME.expected
# file per case in DIR; the explore runs share explore.expected).
#
# Usage: run.sh PATH/TO/hare_cli.exe PATH/TO/bench/main.exe DIR [--update]
#
# Host-side timings are stripped first: the `engine:` lines of hare_cli
# and the wall_clock_s, sim_ops_per_sec and sim_events_per_sec keys of
# the JSON. Everything left is simulated, hence deterministic. Each
# case's exit code is appended as a last "exit N" line. With --update
# the outputs overwrite DIR's expected files instead (test/golden/
# update.sh does that from the source tree).
set -u
here=$PWD
abs() { case $1 in /*) echo "$1" ;; *) echo "$here/$1" ;; esac; }
cli=$(abs "$1")
bench=$(abs "$2")
dir=$(abs "$3")
update=${4:-}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# case NAME CMD...: the command's stdout, engine lines stripped, plus
# its exit code, compared with (or written to) DIR/NAME.expected.
case_() {
  name=$1
  shift
  out=$tmp/$name.out
  (cd "$tmp" && "$@" >"$tmp/raw" 2>/dev/null)
  rc=$?
  if [ "$name" = bench_quick ]; then
    sed -e 's/"wall_clock_s":[^,]*,//' -e 's/"sim_ops_per_sec":[^,]*,//' \
      -e 's/"sim_events_per_sec":[^,]*,//' "$tmp/BENCH_PR2.json" >"$out"
  else
    sed '/^engine: /d' "$tmp/raw" >"$out"
  fi
  echo "exit $rc" >>"$out"
  if [ "$update" = --update ]; then
    cp "$out" "$dir/$name.expected"
  elif ! diff -u "$dir/$name.expected" "$out"; then
    echo "FAIL: golden output $name differs from $name.expected"
    fail=1
  fi
}

case_ run_all "$cli" run all --cores 4 --seed 1 --no-preset --profile \
  --robust --perf --verbose
case_ overload "$cli" run overload --cores 4 --robust --perf --metrics 20000 \
  --retain 8 --blame
case_ shard_ring "$cli" run creates --cores 4 --shard 2 \
  --shard-plan add@100000 --ring --robust
case_ crash_check "$cli" run fsstress --cores 3 \
  --plan crash:1@200000+100000 --robust --check --verbose
# 40 clients tracking one name: invalidation fan-out in callback order.
case_ run_all_40 "$cli" run all --cores 40 --seed 1 --profile
# The baseline worlds (the report flags need --world hare): the only
# cases that charge linux_syscall, linux_lock and linux_dirlock_hold
# (linux), and loopback_rpc (unfs).
case_ linux_all "$cli" run all --world linux --cores 4 --seed 1
case_ unfs_all "$cli" run all --world unfs --cores 4 --seed 1
case_ bench_quick "$bench" --json --quick

# explore_all: each exploration's command line, stdout and exit code:
# the scenario list, exhaustive DPOR of every scenario, the three seeded
# mutations caught by DPOR and one caught by PCT, a clean PCT run and
# the replay of a reported violation.
explore_all() {
  while read -r args; do
    echo "\$ hare_cli explore $args"
    # $args is split on purpose: each line is a list of arguments.
    "$cli" explore $args 2>/dev/null
    echo "exit $?"
  done <<EOF
--list
handoff --budget 500
reopen --budget 500
dirrace --budget 500
readers --budget 500
collide --budget 500
handoff --mutate skip_writeback
reopen --mutate skip_open_inval
dirrace --mutate drop_inval
handoff --mutate skip_writeback --strategy pct --seed 7 --budget 50
collide --strategy pct --seed 3 --budget 50
handoff --mutate skip_writeback --replay 1,0,1,0,0,1
EOF
}
case_ explore explore_all
exit $fail
