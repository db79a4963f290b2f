#!/bin/sh
# Bench counter gate: run the suite, phase and validation benches in a
# fresh directory and compare their BENCH_*.json self-reports against
# bench/baselines with tools/bench_compare.py. Event and message counts
# are deterministic and must match exactly; throughput drops only
# print a WARN.
#
# Usage: bench_counters.sh <bench-binary-dir> <workdir>
set -eu
BIN=$1
COMPARE=$(cd "$(dirname "$0")/.." && pwd)/bench_compare.py
rm -rf "$2"
mkdir -p "$2"
cd "$2"

"$BIN"/bench_table1_suite > /dev/null
"$BIN"/bench_fig_phases > /dev/null
"$BIN"/bench_validation > /dev/null
python3 "$COMPARE"
