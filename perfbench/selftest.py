#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it checks that:
  - an untraced run prints exactly the end_to_end metrics, with their
    units, and passes its checks;
  - a traced run prints exactly the per_layer metrics and passes its
    checks, the composed-versus-CLI byte identity included;
  - a run checked against wrong digests counts failed operations (and,
    traced, a nonzero error_rate) instead of passing silently.
It also checks that run.py fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")


def run(args, cwd=ROOT):
    """Run run.py; return (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    os.makedirs(WORK, exist_ok=True)
    wrong = os.path.join(WORK, "selftest-digests.json")
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    with open(wrong, "w") as f:
        json.dump({w: {op: "0" * 64 for op in ops}
                   for w, ops in digests.items()}, f)

    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        tiny = ["--workload", workload, "--seed", "5", "--seconds", "1",
                "--tiny"]
        for trace in (0, 1):
            code, result = run(tiny + ["--trace", str(trace)])
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{where}: metrics differ from "
                                "BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: failed its checks")

            code, result = run(tiny + ["--trace", str(trace),
                                       "--digests", wrong])
            if code != 0 or result is None or result["correct"] or \
                    result["failed"] == 0 or (
                        trace and result["metrics"]["error_rate"]["value"]
                        <= 0):
                problems.append(f"{where}: wrong digests not counted")
    os.remove(wrong)

    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run(["--workload", "suite", "--seed", "5", "--seconds",
                        "1", "--trace", "0"], cwd=bare)
    if code == 0 or result is not None:
        problems.append("run.py did not fail without the program sources")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL: " + problem)
    print("selftest: " + ("ok" if not problems else
                          f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
