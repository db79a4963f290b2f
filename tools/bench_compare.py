#!/usr/bin/env python3
"""Compare bench self-reports (BENCH_*.json) against committed baselines.

Every bench binary drops a BENCH_<name>.json record in the working
directory (see bench/self_report.hh). This tool diffs those records
against the blessed copies in bench/baselines/ and exits non-zero when
a bench regressed:

 - `events` and `messages` are simulation-derived and deterministic:
   any difference means the simulated behaviour changed, which is a
   hard failure regardless of tolerance. A report can opt out by
   setting `"counts_deterministic": false` (used by benches whose
   totals scale with google-benchmark's adaptive iteration counts).
 - `synth_messages_per_sec` is wall-clock throughput that
   bench_perf_micro times over its own generation loop: a drop of more
   than --tolerance (relative, default 25%) below the baseline is
   reported as a WARN but never affects the exit code — runner
   throughput is too machine-dependent to gate on. Improvements never
   warn. Pass --strict-rates to turn throughput warnings into failures
   on a stable machine. The self-report carries no whole-binary rate:
   its wall time covers work its counters do not observe.
 - boolean fields ending in `_within_noise` are in-process guarantees
   the bench measured against its own noise floor (e.g. the link-stats
   flag-off path costing nothing measurable). They are machine-
   independent by construction, so a `false` value is a hard failure,
   as is a flag the baseline records but the current report dropped.

Baselines are machine-dependent for the throughput fields; refresh
them with --bless after intentional changes. CI runs this step as a
hard gate for the deterministic counters only.

Usage:
  tools/bench_compare.py [options] [BENCH_*.json ...]

With no files, all BENCH_*.json in the current directory are compared,
and a report without a baseline is only listed as NEW. Files named on
the command line are the gate's contract: a named report that is
missing, or that has no baseline, fails.

Options:
  --baselines DIR   baseline directory (default: bench/baselines next
                    to this script's repository root)
  --tolerance F     relative throughput tolerance (default: 0.25)
  --strict-rates    throughput drops beyond tolerance fail instead of
                    warning
  --bless           copy the current reports over the baselines
                    instead of comparing
"""

import glob
import json
import os
import shutil
import sys

EXACT_FIELDS = ("events", "messages")
RATE_FIELDS = ("synth_messages_per_sec",)
NOISE_FLAG_SUFFIX = "_within_noise"


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    opts = {
        "baselines": os.path.join(repo_root(), "bench", "baselines"),
        "tolerance": 0.25,
        "strict_rates": False,
        "bless": False,
        "files": [],
    }
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--baselines":
            i += 1
            opts["baselines"] = argv[i]
        elif arg == "--tolerance":
            i += 1
            opts["tolerance"] = float(argv[i])
        elif arg == "--strict-rates":
            opts["strict_rates"] = True
        elif arg == "--bless":
            opts["bless"] = True
        elif arg in ("-h", "--help"):
            print(__doc__)
            sys.exit(0)
        elif arg.startswith("-"):
            sys.exit(f"bench_compare: unknown option: {arg}")
        else:
            opts["files"].append(arg)
        i += 1
    opts["named"] = bool(opts["files"])
    if not opts["files"]:
        opts["files"] = sorted(glob.glob("BENCH_*.json"))
    return opts


def compare_one(current_path, baseline_path, tolerance):
    """Return (failures, warnings) lists of diff strings."""
    with open(current_path) as f:
        cur = json.load(f)
    with open(baseline_path) as f:
        base = json.load(f)
    failures = []
    warnings = []
    exact_fields = EXACT_FIELDS if cur.get("counts_deterministic", True) else ()
    for field in exact_fields:
        if cur.get(field) != base.get(field):
            failures.append(
                f"{field}: {base.get(field)} -> {cur.get(field)} "
                "(deterministic field changed)"
            )
    for field in RATE_FIELDS:
        b, c = base.get(field, 0.0), cur.get(field, 0.0)
        if b > 0.0 and c < b * (1.0 - tolerance):
            warnings.append(
                f"{field}: {c:.3g}/s is {100 * (1 - c / b):.1f}% below "
                f"baseline {b:.3g}/s (tolerance {100 * tolerance:.0f}%)"
            )
    for field in sorted(cur):
        if field.endswith(NOISE_FLAG_SUFFIX) and cur[field] is False:
            failures.append(
                f"{field}: false (overhead exceeded the bench's own "
                "noise floor)"
            )
    for field in sorted(base):
        if field.endswith(NOISE_FLAG_SUFFIX) and field not in cur:
            failures.append(
                f"{field}: recorded in baseline but missing from the "
                "current report"
            )
    return failures, warnings


def main(argv):
    opts = parse_args(argv)
    if not opts["files"]:
        sys.exit("bench_compare: no BENCH_*.json reports found")

    if opts["bless"]:
        os.makedirs(opts["baselines"], exist_ok=True)
        for path in opts["files"]:
            dest = os.path.join(opts["baselines"], os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"blessed {dest}")
        return 0

    regressed = 0
    slow = 0
    missing = 0
    for path in opts["files"]:
        name = os.path.basename(path)
        baseline = os.path.join(opts["baselines"], name)
        if not os.path.exists(path):
            regressed += 1
            print(f"FAIL  {name}: no such report")
            continue
        if not os.path.exists(baseline):
            if opts["named"]:
                regressed += 1
                print(f"FAIL  {name}: no baseline {baseline}")
            else:
                missing += 1
                print(f"NEW   {name}: no baseline (run with --bless to add)")
            continue
        failures, warnings = compare_one(path, baseline, opts["tolerance"])
        if opts["strict_rates"]:
            failures, warnings = failures + warnings, []
        if failures:
            regressed += 1
            print(f"FAIL  {name}")
            for failure in failures:
                print(f"      {failure}")
        elif warnings:
            slow += 1
            print(f"WARN  {name}")
            for warning in warnings:
                print(f"      {warning}")
        else:
            print(f"OK    {name}")

    total = len(opts["files"])
    print(
        f"bench_compare: {total - regressed - slow - missing}/{total} ok, "
        f"{regressed} regressed, {slow} slow (advisory), "
        f"{missing} without baseline"
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
