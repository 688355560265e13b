#!/bin/bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#   bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
# The build stays in the checkout's _build and the shared dune cache is
# off, so nothing is written outside the checkout. dune replaces itself
# with perf.exe, so no process is left behind.
exec dune exec --root . --display quiet --cache=disabled -- ./bench/perf/perf.exe "$@"
