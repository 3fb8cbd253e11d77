#!/bin/sh
# Hot-path guard: ocamlopt without flambda compiles Stdlib.min/max, and
# =, <>, compare and the orderings on anything it cannot prove to be an
# int, to calls into the C runtime (camlStdlib.min/max ->
# caml_lessequal/caml_greaterequal, caml_equal, caml_compare, ...).
# Each costs about ten times Int.max on the simulator's per-line and
# per-request paths. The polymorphic Hashtbl's probes (find, find_opt,
# mem, replace, add, remove) compare keys with caml_compare inside the
# stdlib; the typed tables of Hare_sim.Tbl keep its hash and bucket
# order without that call. This fails, naming the function, when any
# function in the native archives given as arguments makes such a call,
# apart from the cold functions listed in ALLOW (module-qualified names
# such as Hare_stats__Table.render, space-separated).
#
#   sh no_polycall.sh lib/mem/hare_mem.a ...
ALLOW=""

if ! command -v objdump >/dev/null 2>&1; then
  echo "no_polycall: objdump not found" >&2
  exit 1
fi
for a in "$@"; do
  if [ ! -r "$a" ]; then
    echo "no_polycall: cannot read $a" >&2
    exit 1
  fi
done
objdump -dr "$@" | awk -v allow=" $ALLOW " '
  /^[0-9a-f]+ <.*>:$/ {
    nfun++
    fn = substr($2, 2, length($2) - 3)
    sub(/^caml/, "", fn)
    # Named functions lose their build-dependent stamp; anonymous ones
    # keep it, the only way to find them in the disassembly.
    if (fn !~ /\.fun_[0-9]+$/) sub(/_[0-9]+$/, "", fn)
    next
  }
  / R_[A-Z0-9_]+/ {
    sym = $NF
    sub(/[-+]0x[0-9a-f]+$/, "", sym)
    if (sym ~ /^camlStdlib\.(min|max)_[0-9]+$/ ||
        sym ~ /^caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)$/ ||
        sym ~ /^camlStdlib__Hashtbl\.(find|find_opt|mem|replace|add|remove)_[0-9]+$/) {
      sub(/_[0-9]+$/, "", sym)
      if (index(allow, " " fn " ") == 0) {
        print "no_polycall: " fn " calls " sym > "/dev/stderr"
        bad = 1
      }
    }
  }
  END {
    if (nfun == 0) {
      print "no_polycall: no function disassembled" > "/dev/stderr"
      exit 1
    }
    exit bad
  }'
