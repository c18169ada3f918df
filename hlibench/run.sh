#!/bin/sh
# Build the benchmark from source and run it.  From the repository root:
#
#   bash hlibench/run.sh --workload gen-compile --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -u
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f hlibench/dune ]; then
  echo "hlibench: run from the root of a full source checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./hlibench/main.exe 1>&2 || exit 3
exec ./_build/default/hlibench/main.exe "$@"
