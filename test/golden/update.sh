#!/bin/sh
# Regenerates test/golden/*.expected from the current source tree.
# Run it from the repository root: sh test/golden/update.sh
#
# The expected files pin every `hare_cli run` report, every
# deterministic leaf of the quick bench JSON and the explore runs'
# schedules, verdicts and replay recipes. Regenerate them only for a
# change that is meant to move those outputs, in a commit of its own
# whose CHANGES.md line says why they moved.
set -e
dune build bin/hare_cli.exe bench/main.exe
sh test/golden/run.sh _build/default/bin/hare_cli.exe \
  _build/default/bench/main.exe test/golden --update
