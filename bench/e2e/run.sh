#!/usr/bin/env bash
# Build ccs_solve and the ccsbench harness from source, then run the
# harness with the given arguments. Run from the root of a ccs checkout:
#
#   bash bench/e2e/run.sh --workload xl-approx --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
# The dune cache is off: the build writes only inside the checkout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/ccs_solve.ml ] || [ ! -f bench/e2e/dune ]; then
  echo "run.sh: not at the root of a ccs checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . bin/ccs_solve.exe bench/e2e/ccsbench.exe >&2
exec _build/default/bench/e2e/ccsbench.exe "$@"
