#!/bin/sh
# Layering guard: the protocol stack reaches the trace and the sanitizer
# only through the engine's observer bus, so none of the dune files
# given as arguments may list hare_trace or hare_check.
bad=$(grep -l -E 'hare_(trace|check)' "$@")
if [ -n "$bad" ]; then
  echo "layering: observer library named in:" $bad >&2
  exit 1
fi
