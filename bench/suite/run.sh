#!/usr/bin/env bash
# Build the benchmark from the sources of the checkout it is run in, then
# run it with the given arguments.  Run from the repository root:
#
#   bash bench/suite/run.sh --workload update --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the suite's
# JSON summary.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/suite/dune ]; then
    echo "run.sh: run from the root of a REWIND source checkout" \
         "(dune-project, lib/ and bench/suite/ not found here)" >&2
    exit 2
fi

# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe "$@"
