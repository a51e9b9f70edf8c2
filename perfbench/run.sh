#!/usr/bin/env bash
# Build the kmm daemon and the benchmark runner from source, then run
# one workload.  Run from the root of the source tree:
#
#   bash perfbench/run.sh --workload map-bidir --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the runner's last stdout line is the
# JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f BENCHMARK.json ]; then
  echo "perfbench: run from the root of the kmm source tree" >&2
  exit 2
fi

dune build --root . ./bin/kmm.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
