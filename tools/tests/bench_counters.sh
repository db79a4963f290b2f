#!/bin/sh
# Bench counter gate: run the paper-suite bench in a fresh directory
# and compare its BENCH_paper_suite.json self-report against
# bench/baselines with tools/bench_compare.py. The report is named, so
# a missing report or baseline fails. Event and message counts are
# deterministic and must match exactly. The bench's stdout stays in paper_suite.out for the
# experiments_doc check, so one suite run serves both.
#
# Usage: bench_counters.sh <bench-binary-dir> <workdir>
set -eu
BIN=$1
COMPARE=$(cd "$(dirname "$0")/.." && pwd)/bench_compare.py
rm -rf "$2"
mkdir -p "$2"
cd "$2"

"$BIN"/bench_paper_suite > paper_suite.out
python3 "$COMPARE" BENCH_paper_suite.json
