#!/bin/sh
# Run-to-run agreement of the benchmark on one commit: two sets of K
# untraced runs of all workloads at one seed, then, per workload and
# end-to-end metric, the two set medians, their relative difference, the
# metric's bound from BENCHMARK.json, and PASS when the difference stays
# within the bound (UNRESOLVED otherwise). Run from the repository root:
#
#   sh bench/e2e/repeat.sh [K] [SEED] [SECONDS]    # defaults: 5 1 20
set -eu
K=${1:-5}
SEED=${2:-1}
SECS=${3:-20}
dir=.ccsbench/repeat
rm -rf "$dir"
mkdir -p "$dir"
for set in a b; do
  i=0
  while [ "$i" -lt "$K" ]; do
    bash bench/e2e/run.sh --seed "$SEED" --seconds "$SECS" --trace 0 \
      --out "$dir/work" | tail -n 1 >> "$dir/$set.jsonl"
    i=$((i + 1))
  done
done
_build/default/bench/e2e/ccsbench.exe --compare "$dir/a.jsonl" "$dir/b.jsonl"
