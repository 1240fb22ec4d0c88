#!/bin/sh
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments (see benchmark/README.md). Build messages go to
# standard error, so standard output carries only the benchmark's lines.
# The dune cache is disabled so that nothing is written outside the
# checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
