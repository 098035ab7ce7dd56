#!/usr/bin/env bash
# Build the routing-service benchmark from source and run it.
#
#   bash perfbench/run.sh --workload route32-miss --seed 1 --seconds 10 --trace 0
#
# Run from the root of a qroute checkout.  The build goes to .bench_build
# (no shared dune cache), so nothing is read or written outside the
# checkout.  The last line of standard output is the JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/main.ml ]]; then
  echo "perfbench: run from the root of a qroute checkout (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
