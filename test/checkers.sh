#!/bin/sh
# Exit-code tests of the bench and trace checkers: each well-formed
# fixture passes, and each broken variant of it (made here with sed)
# fails with its documented exit code.
#
#   sh checkers.sh CHECK_EXE TRACE_CHECK_EXE FIXTURE_DIR
check=$1
trace_check=$2
bench=$3/bench_ok.json
trace=$3/trace_ok.json
tmp=checkers_variant.json
fail=0

expect() {
  want=$1
  shift
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*"
    fail=1
  fi
}

# variant SED_SCRIPT FILE: the edited copy of FILE, in $tmp.
variant() {
  sed "$1" "$2" > "$tmp"
  if cmp -s "$tmp" "$2"; then
    echo "FAIL: sed '$1' left $2 unchanged"
    fail=1
  fi
}

# check.exe CURRENT BASELINE: 1 = regression, missing key or malformed
# CURRENT; 2 = a file that does not parse as bench JSON.
expect 0 "$check" "$bench" "$bench"
variant 's/"name":"w2"/"name":"w3"/' "$bench"
expect 1 "$check" "$tmp" "$bench"
variant 's/"simulated_cycles":5000/"simulated_cycles":6000/' "$bench"
expect 1 "$check" "$tmp" "$bench"
head -c 400 "$bench" > "$tmp"
expect 2 "$check" "$tmp" "$tmp"
for edit in 's/hare-bench-pr2\/1/hare-bench-pr2\/0/' \
            's/"timeseries"/"timeseries_"/' \
            's/"gauges"/"gauges_"/' \
            's/"blame"/"blame_"/' \
            's/"qdepth_max"/"qdepth_"/' \
            's/"knee":/"knee_":/'; do
  variant "$edit" "$bench"
  expect 1 "$check" "$tmp" "$bench"
done

# trace_check.exe FILE [--tracks N] [--counters N]: 1 = malformed.
expect 0 "$trace_check" "$trace" --tracks 2 --counters 2
expect 1 "$trace_check" "$trace" --tracks 3
variant 's/^{"name":"open".*/"ph":"X","ts":5,"tid":1,,,/' "$trace"
expect 1 "$trace_check" "$tmp"
variant '1s/traceEvents/events/' "$trace"
expect 1 "$trace_check" "$tmp"
variant 's/"ts":9/"ts":2/' "$trace"
expect 1 "$trace_check" "$tmp"
variant 's/"value":0/"value":"zero"/' "$trace"
expect 1 "$trace_check" "$tmp"

rm -f "$tmp"
exit $fail
