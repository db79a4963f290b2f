#!/usr/bin/env python3
"""End-to-end characterization benchmark.

Runs one named workload for a fixed host-time budget, checks every
output, and prints one JSON result line (the last line of stdout):

    python3 perfbench/run.py --workload suite --seed 42 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics through the program's own
surfaces (the cchar CLI, or SyntheticTrafficGenerator::run for
loadsweep). --trace 1 alternates that untraced pass with a traced pass
of perfbench_harness, which re-composes the same work call by call with
the benchmark's own spans, and reports the per-layer metrics; the
composed outputs must be byte-identical to the CLI's.

The first run in a checkout configures and builds the program from
source into .bench_build/. All scratch files live under .bench_work/
and are removed on exit. See README.md in this directory for the
workloads, the metrics and the layer each metric should move.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
CCHAR = os.path.join(BUILD, "repo", "tools", "cchar")
HARNESS = os.path.join(BUILD, "perfbench_harness")
DIGESTS = os.path.join(HERE, "digests.json")
# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)

# The seed the committed digests pin.
DEFAULT_SEED = 42
# Set-ups per run; setup_s is the median of their CPU seconds.
SETUP_REPS = 9
# Measured passes per run, at least (two give the identity check).
MIN_PASSES = 2
# Host seconds a run may take after the build: no pass starts later,
# and a process still running then is killed.
RUN_BUDGET_S = 170.0
DEADLINE = time.monotonic() + RUN_BUDGET_S

SIM_SPANS = ("ccnuma.run", "mp.run", "core.replay", "core.synth_generate")
SPAN_METRICS = [
    ("ccnuma.run_ms", "ccnuma.run"),
    ("mp.run_ms", "mp.run"),
    ("core.replay_ms", "core.replay"),
    ("load.x4_ms", "load.x4"),
    ("load.x2_ms", "load.x2"),
    ("load.x1_ms", "load.x1"),
    ("load.x0.5_ms", "load.x0.5"),
    ("load.x0.25_ms", "load.x0.25"),
    ("stats.fit_aggregate_ms", "stats.fit_aggregate"),
    ("stats.fit_per_source_ms", "stats.fit_per_source"),
    ("stats.fit_per_kind_ms", "stats.fit_per_kind"),
    ("trace.filter_kind_ms", "trace.filter_kind"),
    ("core.spatial_ms", "core.spatial"),
    ("core.volume_ms", "core.volume"),
    ("core.patterns_ms", "core.patterns"),
    ("core.phases_ms", "core.phases"),
    ("core.analysis_ms", "core.analysis"),
    ("core.render_json_ms", "core.render_json"),
    ("core.render_html_ms", "core.render_html"),
    ("core.synth_load_ms", "core.synth_load"),
    ("core.synth_scale_ms", "core.synth_scale"),
    ("core.synth_generate_ms", "core.synth_generate"),
    ("core.synth_fidelity_ms", "core.synth_fidelity"),
    ("sweep.run_ms", "sweep.run"),
]
COUNT_METRICS = [
    "desim.events",
    "mesh.messages",
    "stats.fit_samples",
    "core.report_bytes",
    "sweep.worker_busy_frac",
    "sweep.worker_idle_frac",
    "sweep.jobs_failed",
    "sweep.retries",
    "sweep.journal_bytes",
    "fault.rerouted_packets",
]


def sha(data):
    return hashlib.sha256(data).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


class Failures:
    """Failed operations of a run; each is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED: " + what, file=sys.stderr)
        return ok


def run_procs(cmds, cwd):
    """Run (argv, stdout_path) commands in sequence.

    Returns (wall seconds, CPU seconds, peak RSS MiB, [exit codes]).
    CPU seconds are the user plus system time of the processes, all
    their threads included. A process that outlives the run's deadline
    is killed and reports its signal.
    """
    rss_kib = 0
    cpu = 0.0
    codes = []
    start = time.perf_counter()
    for argv, out_path in cmds:
        with open(os.path.join(cwd, out_path) if out_path else os.devnull,
                  "wb") as out:
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out,
                                    stderr=subprocess.PIPE)
            killer = threading.Timer(max(DEADLINE - time.monotonic(), 0),
                                     proc.kill)
            killer.start()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
        codes.append(proc.returncode)
        rss_kib = max(rss_kib, usage.ru_maxrss)
        cpu += usage.ru_utime + usage.ru_stime
        if proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
    return time.perf_counter() - start, cpu, rss_kib / 1024.0, codes


def cpu_seconds():
    """User plus system CPU seconds of this process and reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


def read(path):
    with open(path, "rb") as f:
        return f.read()


def span_totals(trace):
    totals = {}
    durations = {}
    for span in trace["spans"]:
        ms = span["end_ms"] - span["start_ms"]
        totals[span["name"]] = totals.get(span["name"], 0.0) + ms
        durations.setdefault(span["name"], []).append(ms)
    return totals, durations


class Workload:
    """One named workload: set-up, an untraced pass and a traced pass.

    Set-up writes the inputs into the run directory and returns the
    exit codes of the processes it ran. A pass returns its wall and CPU
    seconds, its peak RSS and the bytes of each output it checks, keyed
    by the operation that produced them; check() turns them into
    operation outcomes and returns the messages the pass simulated.
    """

    jobs = 0
    # True when the program's inputs do not depend on the seed, so the
    # committed digests apply to every seed.
    seed_independent = False

    def __init__(self, seed, tiny):
        self.seed = seed

    def cchar(self, *args):
        return [CCHAR] + [str(a) for a in args]


class Suite(Workload):
    """All 8 apps at the paper's standard configurations."""

    SM_APPS = ["1d-fft", "is", "cholesky", "maxflow", "nbody", "sor"]
    MP_APPS = ["3d-fft", "mg"]
    seed_independent = True

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        apps = ["1d-fft", "3d-fft"] if tiny else self.SM_APPS + self.MP_APPS
        # The CLI takes no input seed for the apps; the seed only
        # orders the runs.
        random.Random(seed).shuffle(apps)
        self.apps = apps
        self.jobs = len(apps)

    def characterize(self, app, tag):
        mesh = ["--width", 4, "--height", 2] if app in self.MP_APPS else []
        return (self.cchar("characterize", app, *mesh, "--phases", "--json",
                           "--report-out", f"{tag}{app}.html"),
                f"{tag}{app}.json")

    def setup(self, rundir):
        return run_procs([self.characterize("1d-fft", "warm-")], rundir)[3]

    def run_pass(self, rundir, tag):
        wall, cpu, rss, codes = run_procs(
            [self.characterize(app, tag) for app in self.apps], rundir)
        outputs = {}
        for app, code in zip(self.apps, codes):
            outputs[app] = read(os.path.join(rundir, f"{tag}{app}.json")) \
                if code == 0 else None
        return wall, cpu, rss, outputs

    def check(self, outputs, expected, failures):
        msgs = 0
        for app, data in outputs.items():
            report = json.loads(data) if data else {}
            msgs += report.get("volume", {}).get("messages", 0)
            failures.op(data is not None and report.get("verified") is True
                        and sha(data) == expected.get(app, sha(data)),
                        f"suite {app}: exit, verify or digest")
        return msgs

    def trace_pass(self, rundir, tag):
        outdir = os.path.join(rundir, tag + "composed")
        os.makedirs(outdir)
        wall, _, _, codes = run_procs(
            [([HARNESS, "trace-suite", outdir] + self.apps, None)], rundir)
        traces = [os.path.join(outdir, "trace.json")]
        pairs = []
        for app in self.apps:
            for ext in ("json", "html"):
                pairs.append((os.path.join(outdir, f"{app}.{ext}"),
                              os.path.join(rundir, f"{tag}{app}.{ext}")))
        return wall, codes[0], traces, pairs


class SynthScale(Workload):
    """cchar synth replaying the `is` model at 64 procs, 300k messages."""

    jobs = 1

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.procs, self.messages = (32, 20000) if tiny else (64, 300000)

    def setup(self, rundir):
        return run_procs([(self.cchar("characterize", "is", "--json"),
                           "is_model.json")], rundir)[3]

    def synth(self, tag):
        return (self.cchar("synth", "is_model.json", "--scale-procs",
                           self.procs, "--messages", self.messages,
                           "--seed", self.seed, "--phases", "--json"),
                f"{tag}synth.json")

    def run_pass(self, rundir, tag):
        wall, cpu, rss, codes = run_procs([self.synth(tag)], rundir)
        data = read(os.path.join(rundir, f"{tag}synth.json")) \
            if codes[0] == 0 else None
        return wall, cpu, rss, {"synth": data}

    def check(self, outputs, expected, failures):
        data = outputs["synth"]
        report = json.loads(data) if data else {}
        msgs = report.get("volume", {}).get("messages", 0)
        fidelity = report.get("synthFidelity", {})
        failures.op(data is not None and report.get("verified") is True
                    and fidelity.get("syntheticMessages") == msgs
                    and sha(data) == expected.get("synth", sha(data)),
                    "synth_scale: exit, message count or digest")
        return msgs

    def trace_pass(self, rundir, tag):
        outdir = os.path.join(rundir, tag + "composed")
        os.makedirs(outdir)
        wall, _, _, codes = run_procs(
            [([HARNESS, "trace-synth", "is_model.json", str(self.seed),
               str(self.procs), str(self.messages), outdir], None)], rundir)
        return wall, codes[0], [os.path.join(outdir, "trace.json")], [
            (os.path.join(outdir, "synth.json"),
             os.path.join(rundir, f"{tag}synth.json"))]


class Loadsweep(SynthScale):
    """SyntheticTrafficGenerator::run at five loads, 200k msgs each."""

    jobs = 5

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.procs, self.messages = (32, 10000) if tiny else (64, 200000)

    def args(self):
        return ["is_model.json", str(self.seed), str(self.procs),
                str(self.messages)]

    def run_pass(self, rundir, tag):
        wall, cpu, rss, codes = run_procs(
            [([HARNESS, "loadsweep"] + self.args()
              + [f"{tag}loadsweep.txt"], None)], rundir)
        outputs = {}
        if codes[0] == 0:
            for line in read(os.path.join(rundir, f"{tag}loadsweep.txt")) \
                    .splitlines():
                outputs[line.split()[0].decode()] = line
        return wall, cpu, rss, outputs

    def check(self, outputs, expected, failures):
        msgs = 0
        failures.op(len(outputs) == self.jobs, "loadsweep: exit or points")
        for point, line in outputs.items():
            fields = dict(f.split("=") for f in line.decode().split()[1:])
            msgs += int(fields["messages"])
            failures.op(fields["messages"] == fields["injected"]
                        and sha(line) == expected.get(point, sha(line)),
                        f"loadsweep {point}: conservation or digest")
        return msgs

    def trace_pass(self, rundir, tag):
        outdir = os.path.join(rundir, tag + "composed")
        os.makedirs(outdir)
        wall, _, _, codes = run_procs(
            [([HARNESS, "trace-loadsweep"] + self.args() + [outdir], None)],
            rundir)
        return wall, codes[0], [os.path.join(outdir, "trace.json")], [
            (os.path.join(outdir, "loadsweep.txt"),
             os.path.join(rundir, f"{tag}loadsweep.txt"))]


class Campaign(Workload):
    """cchar sweep: 16 jobs over 2 workers with both sinks and a journal."""

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.spec = {
            "apps": ["nbody"] if tiny else ["is", "cholesky", "nbody", "mg"],
            "procs": [8] if tiny else [8, 16],
            "seeds": [seed],
            "fault_plans": ["", "link:5->6:down"],
            "rank_activity": True,
            "link_stats": True,
        }
        self.jobs = len(self.spec["apps"]) * len(self.spec["procs"]) * 2

    def setup(self, rundir):
        with open(os.path.join(rundir, "spec.json"), "w") as f:
            json.dump(self.spec, f)
        # Warm-up: one job of the same path.
        return run_procs([(self.cchar("sweep", "--apps", "is", "--procs", 8,
                                      "--seeds", self.seed, "-j", 1,
                                      "--rank-activity", "--link-stats",
                                      "--journal", "warm.jsonl"),
                           "warm.json")], rundir)[3]

    def run_pass(self, rundir, tag):
        wall, cpu, rss, codes = run_procs(
            [(self.cchar("sweep", "--spec", "spec.json", "-j", 2,
                         "--journal", f"{tag}journal.jsonl"),
              f"{tag}sweep.json")], rundir)
        data = read(os.path.join(rundir, f"{tag}sweep.json")) \
            if codes[0] == 0 else None
        return wall, cpu, rss, {"sweep": data}

    def check(self, outputs, expected, failures):
        data = outputs["sweep"]
        result = json.loads(data) if data else {"jobs": [], "metrics": {}}
        jobs = result["jobs"]
        for job in jobs:
            failures.op(job["status"] == "ok" and job["verified"]
                        and not job["quarantined"],
                        f"campaign job {job['index']}: status or verify")
        failures.op(len(jobs) == self.jobs and self.conserved(result)
                    and sha(data) == expected.get("sweep", sha(data)),
                    "campaign: exit, conservation or digest")
        return sum(job["messages"] for job in jobs)

    @staticmethod
    def conserved(result):
        """Every message a mesh carried is accounted for.

        The MP runtime's own network carries each send, ack and
        retransmission; the replay and the CC-NUMA meshes carry exactly
        the logged messages of their jobs.
        """
        counters = result["metrics"].get("counters", {})
        jobs = result["jobs"]
        mp_logged = sum(j["messages"] for j in jobs
                        if j["app"] in Suite.MP_APPS)
        mp_runtime = sum(counters.get(k, 0) for k in
                         ("mp.sends", "mp.acks", "mp.retransmits"))
        return (counters.get("replay.messages", 0) == mp_logged
                and counters.get("mesh.messages", 0)
                == sum(j["messages"] for j in jobs) + mp_runtime)

    def trace_pass(self, rundir, tag):
        outdir = os.path.join(rundir, tag + "composed")
        sinkdir = os.path.join(rundir, tag + "sinks")
        os.makedirs(outdir)
        os.makedirs(sinkdir)
        wall, _, _, codes = run_procs(
            [([HARNESS, "trace-campaign", "spec.json", outdir], None)],
            rundir)
        # Sink cost is measured apart, so it stays out of the traced wall.
        _, _, _, sink_codes = run_procs(
            [([HARNESS, "sink-cost", "spec.json", sinkdir], None)], rundir)
        traces = [os.path.join(d, "trace.json") for d in (outdir, sinkdir)]
        return wall, codes[0] or sink_codes[0], traces, [
            (os.path.join(outdir, "sweep.json"),
             os.path.join(rundir, f"{tag}sweep.json"))]


WORKLOADS = {
    "suite": Suite,
    "synth_scale": SynthScale,
    "loadsweep": Loadsweep,
    "campaign": Campaign,
}


def build():
    """Configure once and bring the two binaries up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no program sources next to " + HERE)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "cchar",
                  "perfbench_harness"])
    with open(log, "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode:
                with open(log, errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed")


def expected_digests(workload, args):
    """Digests the outputs must match, or {} for first-pass identity."""
    if args.digests:
        with open(args.digests) as f:
            return json.load(f).get(args.workload, {})
    if args.tiny or not (workload.seed_independent
                         or args.seed == DEFAULT_SEED):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)[args.workload]


def measure(workload, args, rundir):
    failures = Failures()
    expected = expected_digests(workload, args)
    setups = []
    for _ in range(SETUP_REPS if not args.tiny else 1):
        before = cpu_seconds()
        codes = workload.setup(rundir)
        setups.append(cpu_seconds() - before)
        failures.op(not any(codes), "set-up")

    walls, cpus, rsss, msgs = [], [], [], []
    traced_walls, layers = [], []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
        if time.monotonic() > DEADLINE:
            failures.op(False, "run deadline reached")
            break
        tag = f"p{passes}-"
        wall, cpu, rss, outputs = workload.run_pass(rundir, tag)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        msgs.append(workload.check(outputs, expected, failures))
        if not expected:
            # First pass of a held-out seed: later passes must match it.
            expected = {k: sha(v) for k, v in outputs.items() if v}
        if args.trace:
            twall, code, traces, pairs = workload.trace_pass(rundir, tag)
            traced_walls.append(twall)
            layers.append(layer_values(traces, code, pairs, failures))
        passes += 1

    if args.trace:
        metrics = {name: median([v[name] for v in layers])
                   for name in layers[0]}
        metrics["wall_s"] = median(walls)
        metrics["tracing_overhead"] = \
            median(traced_walls) / median(walls) - 1.0
        metrics["error_rate"] = failures.failed / failures.attempted
    else:
        # CPU time leaves out what the host adds to wall time: waiting
        # for a CPU, time stolen by other guests, fsync waits.
        cpu = median(cpus)
        metrics = {
            "setup_s": median(setups),
            "cpu_s": cpu,
            "msgs_per_cpu_s": median(msgs) / cpu,
            "jobs_per_cpu_s": workload.jobs / cpu,
            "peak_rss_mb": median(rsss),
        }
    units = {m["name"]: m["unit"] for m in
             BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    return failures, {name: {"value": value, "unit": units[name]}
                      for name, value in metrics.items()}


def layer_values(traces, code, pairs, failures):
    """Per-layer values of one traced pass, plus its identity checks."""
    trace = {"spans": [], "counts": {}, "failures": []}
    if code != 0:
        trace["failures"].append("harness exited with " + str(code))
    else:
        for path in traces:
            with open(path) as f:
                part = json.load(f)
            for key in ("spans", "failures"):
                trace[key] += part[key]
            trace["counts"].update(part["counts"])
    for what in trace["failures"]:
        failures.op(False, "traced run: " + what)
    for composed, cli in pairs:
        same = code == 0 and read(composed) == read(cli)
        failures.op(same, "composed output differs from the CLI's: "
                    + os.path.basename(cli))

    totals, durations = span_totals(trace)
    counts = trace["counts"]
    values = {metric: totals.get(span, 0.0) for metric, span in SPAN_METRICS}
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0.0)
    on = durations.get("sweep.job_sinks_on", [])
    values["sweep.job_ms_p50"] = median(on)
    values["obs.sinks_ms"] = sum(on) - sum(
        durations.get("sweep.job_sinks_off", []))
    sim_ms = sum(totals.get(span, 0.0) for span in SIM_SPANS)
    # Jobs inside the sweep engine are not split further: there the
    # whole sweep.run span is the simulating span.
    sim_ns = (sim_ms or totals.get("sweep.run", 0.0)) * 1e6
    events = values["desim.events"]
    values["desim.ns_per_event"] = sim_ns / events if events else 0.0
    values["analysis_per_sim"] = \
        totals.get("core.analysis", 0.0) / sim_ms if sim_ms else 0.0
    return values


def bless():
    """Rewrite digests.json from one default-seed pass per workload."""
    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, False)
        rundir = os.path.join(WORK, f"bless-{name}")
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        setup_codes = workload.setup(rundir)
        _, _, _, outputs = workload.run_pass(rundir, "")
        if any(setup_codes) or any(v is None for v in outputs.values()):
            sys.exit(f"perfbench: {name} failed; nothing blessed")
        digests[name] = {k: sha(v) for k, v in sorted(outputs.items())}
        shutil.rmtree(rundir)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run at a tiny size (self-tests)")
    parser.add_argument("--digests",
                        help="check against this digest file instead")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite digests.json at the default seed")
    args = parser.parse_args()
    if not args.bless and not args.workload:
        parser.error("--workload is required")

    build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_BUDGET_S
    if args.bless:
        bless()
        return 0
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    rundir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        failures, metrics = measure(workload, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
