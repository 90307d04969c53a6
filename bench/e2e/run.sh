#!/usr/bin/env bash
# Build relayd and omfbench from this checkout, then run omfbench with
# the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload paper-a-live --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build output goes to stderr, so
# the last line of standard output is omfbench's result line. The dune
# cache is off: everything the build writes stays under _build/.
set -euo pipefail

export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./bin/relayd.exe ./bench/e2e/omfbench.exe 1>&2
exec ./_build/default/bench/e2e/omfbench.exe \
  --relayd ./_build/default/bin/relayd.exe "$@"
