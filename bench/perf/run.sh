#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# from the root of a checkout.  Build output goes to stderr, so the last
# line of stdout is the run's summary object.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe run "$@"
