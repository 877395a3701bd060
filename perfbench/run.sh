#!/bin/sh
# Build gdpd and the benchmark from this source tree, then run one
# benchmark workload from the tree's root:
#
#   sh perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
# Outside a full source tree the build fails and so does this script.
set -e
dune build --root . --cache=disabled ./perfbench/bench.exe ./bin/gdpd.exe >&2
exec ./_build/default/perfbench/bench.exe --gdpd ./_build/default/bin/gdpd.exe "$@"
