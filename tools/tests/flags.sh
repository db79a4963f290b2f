#!/bin/sh
# Command-line flag checks. Every subcommand parses its flags through
# one table and one loop (tools/cchar.cc), so each must reject the same
# mistakes the same way: an unknown flag, a value flag given no value
# and a value out of range are usage errors (exit 2) whose message
# names the flag, and a flag the subcommand would ignore is unknown
# to it. For sweep and chaos, "-j8", "-j 8" and "--jobs 8"
# are one flag and give byte-identical output.
#
# Usage: flags.sh <cchar-binary> <workdir>
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

# expect_usage TEXT ARGS...: `cchar ARGS` exits 2 and says TEXT.
expect_usage() {
    text=$1
    shift
    code=0
    "$B" "$@" > /dev/null 2> err.txt || code=$?
    test "$code" -eq 2 || {
        echo "cchar $*: expected exit 2, got $code"
        exit 1
    }
    grep -qF -- "$text" err.txt || {
        echo "cchar $*: stderr lacks '$text':"
        cat err.txt
        exit 1
    }
}

"$B" characterize 1d-fft --width 2 --height 2 --json > model.json \
    2>/dev/null
"$B" trace mg --width 2 --height 2 --out mg.trace > /dev/null

expect_usage "unknown option: --bogus-flag" synth model.json --bogus-flag
expect_usage "--seed needs a value" synth model.json --seed
expect_usage "unknown option: --bogus-flag" sweep --apps is --bogus-flag
expect_usage "--procs needs a value" sweep --apps is --procs
expect_usage "unknown option: --bogus-flag" chaos --plans 1 --bogus-flag
expect_usage "--plans needs a value" chaos --plans
expect_usage "unknown option: --bogus-flag" replay mg.trace --bogus-flag
expect_usage "--width needs a value" replay mg.trace --width

# Bounds are declared with the flag and checked before any run.
expect_usage "--width must be >= 1" characterize 1d-fft --width 0
expect_usage "--height must be >= 1" report 1d-fft --height 0
expect_usage "--vcs must be >= 1" replay mg.trace --vcs 0
expect_usage "--windows must be >= 0" characterize 1d-fft --windows -1
expect_usage "--vcs must be >= 1" sweep --apps is --procs 4 --vcs 0
expect_usage "-j must be >= 1" chaos --plans 1 -j0
expect_usage "--jobs must be >= 1" sweep --apps is --procs 4 --jobs 0

# A flag a subcommand would ignore is rejected by name: trace takes
# only the mesh flags, --no-reroute and --out, and characterize and
# replay print their report on stdout, so they take no --out.
for flag in --json --phases --report-out --metrics-out --rank-activity \
    --link-stats --top-links --progress --windows --synthetic \
    --trace-out --sample-period --fault-plan --seed --trace-errors \
    --strict --lenient --watchdog-period --watchdog-stalls \
    --max-sim-time; do
    expect_usage "trace: unknown option: $flag" \
        trace mg --out ignored.trace "$flag" 1
done
expect_usage "characterize: unknown option: --out" \
    characterize is --out ignored.txt --json
expect_usage "replay: unknown option: --out" replay mg.trace --out ignored.txt
# The HTML report has no model-validation section, so report takes no
# --synthetic.
expect_usage "report: unknown option: --synthetic" report is --synthetic

# A shared-memory application runs on at most 64 CC-NUMA processors.
expect_usage "characterize: --width x --height must be <= 64" \
    characterize is --width 16 --height 16

# The three spellings of the worker count.
SWEEP="--apps is --procs 4 --loads 0.1,0.2 --seeds 1..2"
CHAOS="--plans 2 --apps mg --procs 4 --shrink-budget 2"
n=0
for form in "-j8" "-j 8" "--jobs 8"; do
    n=$((n + 1))
    # shellcheck disable=SC2086
    "$B" sweep $SWEEP $form > "sweep-$n.json" 2>/dev/null
    # shellcheck disable=SC2086
    "$B" chaos $CHAOS $form > "chaos-$n.txt" 2>/dev/null
done
grep -q '"jobs"' sweep-1.json
for n in 2 3; do
    cmp sweep-1.json "sweep-$n.json"
    cmp chaos-1.txt "chaos-$n.txt"
done
