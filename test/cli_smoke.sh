#!/bin/sh
# Smoke test of the hare_cli command line: every composition below must
# exit with its documented code (0 clean, 1 failure or bad arguments,
# 2 explore bad arguments). Usage: cli_smoke.sh PATH/TO/hare_cli.exe
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
expect 1 run nosuch --cores 2
expect 1 run creates --cores 2 --plan "drop:fs:1.5"
expect 1 run creates --cores 2 --plan "drop:fs:0.1" --deadline 0
expect 1 run creates --cores 2 --trace trace_smoke.json --strict --trace-cap 16
expect 1 run creates --cores 2 --plan "drop:fs:1.0" --deadline 2000 --retries 2
expect 1 run creates --cores 2 --world linux --robust
expect 1 run creates --cores 2 --blame
expect 1 run creates --cores 2 --ring
expect 1 run all --cores 2 --trace trace_smoke.json
expect 1 run creates --cores 2 --series series_smoke.json
expect 1 fig 99
expect 2 explore collide --strategy foo
expect 2 explore collide --replay 0,x
expect 2 explore nosuch
expect 2 explore collide --mutate nosuch
exit $fail
