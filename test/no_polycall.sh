#!/bin/sh
# Hot-path guard: ocamlopt without flambda compiles Stdlib.min/max, and
# =, <>, compare and the orderings on anything it cannot prove to be an
# int, to calls into the C runtime (camlStdlib.min/max ->
# caml_lessequal/caml_greaterequal, caml_equal, caml_compare, ...).
# Each costs about ten times Int.max on the simulator's per-line and
# per-request paths. The polymorphic Hashtbl's probes compare keys with
# caml_compare inside the stdlib; the typed tables of Hare_sim.Tbl keep
# its hash and bucket order without that call. This fails, naming the
# function, when any function in the native archives given as arguments
# makes such a call.
#
# The banned Hashtbl symbols are read off the stdlib archive the code
# was built against: the Hashtbl functions that reference a polymorphic
# comparison primitive, and the Hashtbl functions that reference those.
# Calls are matched against these exact symbols, so the functorial
# tables' own find_opt/replace/mem/remove (which share the names but
# compare with the functor's equal) pass under every build profile.
#
#   sh no_polycall.sh STDLIB_A lib/mem/hare_mem.a ...
stdlib=$1
shift

if ! command -v objdump >/dev/null 2>&1; then
  echo "no_polycall: objdump not found" >&2
  exit 1
fi
for a in "$stdlib" "$@"; do
  if [ ! -r "$a" ]; then
    echo "no_polycall: cannot read $a" >&2
    exit 1
  fi
done
poly='^caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)$'
banned=$(objdump -dr "$stdlib" | awk -v poly="$poly" '
  /^[0-9a-f]+ <.*>:$/ { fn = substr($2, 2, length($2) - 3); next }
  fn ~ /^camlStdlib__Hashtbl\./ && / R_[A-Z0-9_]+/ {
    sym = $NF
    sub(/[-+]0x[0-9a-f]+$/, "", sym)
    if (sym ~ poly) bad[fn] = 1
    else if (sym ~ /^camlStdlib__Hashtbl\./) calls[fn, sym] = 1
  }
  END {
    do {
      grew = 0
      for (e in calls) {
        split(e, p, SUBSEP)
        if ((p[2] in bad) && !(p[1] in bad)) { bad[p[1]] = 1; grew = 1 }
      }
    } while (grew)
    for (f in bad) printf " %s", f
  }')
if [ -z "$banned" ]; then
  echo "no_polycall: no comparing Hashtbl function found in $stdlib" >&2
  exit 1
fi
objdump -dr "$@" | awk -v poly="$poly" -v banned="$banned " '
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
    if (sym ~ /^camlStdlib\.(min|max)_[0-9]+$/ || sym ~ poly ||
        index(banned, " " sym " ") > 0) {
      print "no_polycall: " fn " calls " sym > "/dev/stderr"
      bad = 1
    }
  }
  END {
    if (nfun == 0) {
      print "no_polycall: no function disassembled" > "/dev/stderr"
      exit 1
    }
    exit bad
  }'
