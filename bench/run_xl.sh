#!/bin/sh
# Local reproduction of the bench-xl CI job: the million-job CLI round
# trip, the XL sweep (writes the xl_sweep section of BENCH_timing.json),
# and the calibrated regression gate over the xl_* phases and counters.
#
#   bench/run_xl.sh                # full tier, gate at the CI tolerance
#   CCS_BENCH_TOLERANCE=0.25 bench/run_xl.sh   # tighter gate on a quiet box
#
# The tier needs roughly 10s of CPU and ~150 MB of RAM; everything it
# writes outside _build/ is BENCH_timing.json and a temp .ccsb file that
# is removed on exit.
set -eu
cd "$(dirname "$0")/.."

TOL="${CCS_BENCH_TOLERANCE:-1.5}"
GEN=_build/default/bin/ccs_gen.exe
SOLVE=_build/default/bin/ccs_solve.exe
REPORT=_build/default/bin/ccs_report.exe

dune build bench/main.exe bin/ccs_gen.exe bin/ccs_solve.exe bin/ccs_report.exe

XL_BIN=$(mktemp -t ccs_xl_XXXXXX.ccsb)
trap 'rm -f "$XL_BIN"' EXIT INT TERM

echo "== million-job CLI round trip (ccsb1 input, --compress) =="
"$GEN" -n 1000000 -C 150000 -m 100000 -c 3 --p-hi 1000 --seed 9 \
  --format flat -o "$XL_BIN"
"$SOLVE" "$XL_BIN" --variant splittable --algo approx --compress | tail -n 4
"$SOLVE" "$XL_BIN" --variant nonpreemptive --algo approx --compress | tail -n 4

echo "== XL sweep (xl_sweep section of BENCH_timing.json) =="
dune exec bench/main.exe -- XL

echo "== calibrated gate (tolerance $TOL) =="
CCS_BENCH_XL=1 CCS_BENCH_TOLERANCE="$TOL" "$REPORT" --check
