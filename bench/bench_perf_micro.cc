/**
 * @file
 * Experiment P1 — engineering microbenchmarks (google-benchmark):
 * simulation-kernel event throughput, mesh message throughput, and
 * distribution-fitter cost. Not a paper experiment; tracks the
 * simulator's own performance.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "apps/registry.hh"
#include "core/core.hh"
#include "desim/desim.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "mesh/mesh.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"
#include "stats/stats.hh"
#include "sweep/engine.hh"
#include "sweep/spec.hh"

#include "self_report.hh"

namespace {

using namespace cchar;

void
BM_DesimEventThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        desim::Simulator sim;
        sim.spawn([](desim::Simulator &s) -> desim::Task<void> {
            for (int i = 0; i < 10000; ++i)
                co_await s.delay(1.0);
        }(sim));
        sim.run();
        benchmark::DoNotOptimize(sim.processedEvents());
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DesimEventThroughput);

void
BM_MeshMessageThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        desim::Simulator sim;
        mesh::MeshConfig cfg;
        cfg.width = 4;
        cfg.height = 4;
        mesh::MeshNetwork net{sim, cfg};
        for (int node = 0; node < 16; ++node) {
            sim.spawn([](mesh::MeshNetwork *n,
                         int node2) -> desim::Task<void> {
                for (;;)
                    (void)co_await n->rxQueue(node2).receive();
            }(&net, node));
        }
        sim.spawn([](mesh::MeshNetwork *n) -> desim::Task<void> {
            stats::Rng rng{3};
            for (int i = 0; i < 2000; ++i) {
                int src = static_cast<int>(rng.below(16));
                int dst = static_cast<int>(rng.below(16));
                if (src == dst)
                    continue;
                mesh::Packet pkt;
                pkt.src = src;
                pkt.dst = dst;
                pkt.bytes = 32;
                (void)co_await n->transfer(std::move(pkt));
            }
        }(&net));
        sim.run();
        benchmark::DoNotOptimize(net.messageCount());
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_MeshMessageThroughput);

void
BM_FitterBestFit(benchmark::State &state)
{
    stats::Rng rng{1};
    stats::HyperExponential2 truth{0.3, 3.0, 0.4};
    std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
    for (auto &x : xs)
        x = truth.sample(rng);
    stats::DistributionFitter fitter;
    for (auto _ : state) {
        auto best = fitter.bestFit(xs);
        benchmark::DoNotOptimize(best.gof.r2);
    }
}
BENCHMARK(BM_FitterBestFit)->Arg(1000)->Arg(10000);

/**
 * One mesh workload run for the checkpoint-overhead probe, optionally
 * with a periodic windowed-telemetry sampler ("checkpointing" the
 * network counters every 50us of simulated time) attached.
 *
 * @return wall seconds spent inside sim.run().
 */
double
ckptWorkload(bool withSampler)
{
    desim::Simulator sim;
    mesh::MeshConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    mesh::MeshNetwork net{sim, cfg};
    obs::WindowedSampler sampler;
    if (withSampler) {
        sampler.addSeries("messages", [&net] {
            return static_cast<double>(net.messageCount());
        });
        sampler.addSeries("events", [&sim] {
            return static_cast<double>(sim.processedEvents());
        });
        sim.attachPeriodic([&sampler](double t) { sampler.sample(t); },
                           50.0);
    }
    for (int node = 0; node < 16; ++node) {
        sim.spawn([](mesh::MeshNetwork *n, int node2) -> desim::Task<void> {
            for (;;)
                (void)co_await n->rxQueue(node2).receive();
        }(&net, node));
    }
    sim.spawn([](mesh::MeshNetwork *n) -> desim::Task<void> {
        stats::Rng rng{17};
        for (int i = 0; i < 4000; ++i) {
            int src = static_cast<int>(rng.below(16));
            int dst = static_cast<int>(rng.below(16));
            if (src == dst)
                continue;
            mesh::Packet pkt;
            pkt.src = src;
            pkt.dst = dst;
            pkt.bytes = 32;
            (void)co_await n->transfer(std::move(pkt));
        }
    }(&net));
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Checkpoint (periodic telemetry) overhead, measured honestly:
 *
 *  - both variants run in the *same process* after shared warm-up
 *    passes, so neither side pays the cold-start (page faults, pool
 *    growth) the other skipped — the old cross-process comparison is
 *    what produced a nonsense negative overhead;
 *  - min-of-N wall times on each side discard scheduler noise;
 *  - the baseline's own rep-to-rep spread is the measurement
 *    resolution: a delta smaller than that (including any negative
 *    delta) is indistinguishable from noise, reported as 0 with the
 *    noise flag set.
 */
void
reportCkptOverhead(cchar::bench::SelfReport &report)
{
    constexpr int kReps = 7;
    ckptWorkload(false); // warm-up: allocator, frame pools, code paths
    ckptWorkload(true);

    double base = 0.0, baseMax = 0.0, ckpt = 0.0;
    for (int i = 0; i < kReps; ++i) {
        // Interleaved so slow drift (thermal, cgroup) hits both sides.
        double b = ckptWorkload(false);
        double c = ckptWorkload(true);
        base = i == 0 ? b : std::min(base, b);
        baseMax = i == 0 ? b : std::max(baseMax, b);
        ckpt = i == 0 ? c : std::min(ckpt, c);
    }
    double overheadPct = (ckpt - base) / base * 100.0;
    double resolutionPct = (baseMax - base) / base * 100.0;
    bool noise = overheadPct < resolutionPct;
    if (noise && overheadPct < 0.0)
        overheadPct = 0.0;
    report.extra("ckpt_overhead_pct", overheadPct);
    report.extra("ckpt_resolution_pct", resolutionPct);
    report.extraFlag("ckpt_overhead_noise", noise);
    std::cerr << "[bench] perf_micro: ckpt overhead " << overheadPct
              << "% (resolution " << resolutionPct << "%"
              << (noise ? ", below noise floor" : "") << ")\n";
}

/**
 * One mesh workload run for the link-stats overhead probe.
 *
 * Modes map onto the three states the production code can be in:
 *  0  plain: no ambient observability scope at all;
 *  1  flag-off: a ScopedObservability is installed but carries no
 *     link sink — the default CLI path, whose only possible cost is
 *     the dormant null-checked hooks in the mesh hot path;
 *  2  flag-on: a LinkStatsTracker is installed and every lane
 *     acquire/release/hop pays the recording cost.
 *
 * @return wall seconds spent inside sim.run().
 */
double
linkWorkload(int mode)
{
    desim::Simulator sim;
    obs::LinkStatsTracker tracker;
    std::optional<obs::ScopedObservability> scope;
    if (mode == 1)
        scope.emplace(nullptr, nullptr, nullptr, nullptr, nullptr);
    else if (mode == 2)
        scope.emplace(nullptr, nullptr, nullptr, nullptr, &tracker);
    mesh::MeshConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    mesh::MeshNetwork net{sim, cfg}; // after scope: caches the sink
    for (int node = 0; node < 16; ++node) {
        sim.spawn([](mesh::MeshNetwork *n, int node2) -> desim::Task<void> {
            for (;;)
                (void)co_await n->rxQueue(node2).receive();
        }(&net, node));
    }
    sim.spawn([](mesh::MeshNetwork *n) -> desim::Task<void> {
        stats::Rng rng{23};
        for (int i = 0; i < 4000; ++i) {
            int src = static_cast<int>(rng.below(16));
            int dst = static_cast<int>(rng.below(16));
            if (src == dst)
                continue;
            mesh::Packet pkt;
            pkt.src = src;
            pkt.dst = dst;
            pkt.bytes = 32;
            (void)co_await n->transfer(std::move(pkt));
        }
    }(&net));
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    if (mode == 2)
        tracker.finish(sim.now());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Link-stats (network weather) overhead, same protocol as the
 * checkpoint probe: shared warm-up, interleaved min-of-N reps, the
 * plain baseline's own spread as the measurement resolution.
 *
 * Two results matter downstream:
 *  - link_stats_overhead_pct: flag-on over flag-off — the price of
 *    actually recording per-link facts;
 *  - link_stats_off_within_noise: the flag-off path (dormant hooks)
 *    must stay within the noise floor of the plain run. This is the
 *    zero-perturbation guarantee as a measurement; bench_compare.py
 *    hard-fails when it is false.
 */
void
reportLinkStatsOverhead(cchar::bench::SelfReport &report)
{
    constexpr int kReps = 7;
    linkWorkload(0); // warm-up: allocator, frame pools, code paths
    linkWorkload(1);
    linkWorkload(2);

    double ref = 0.0, refMax = 0.0, off = 0.0, on = 0.0;
    for (int i = 0; i < kReps; ++i) {
        // Interleaved so slow drift (thermal, cgroup) hits all sides.
        double r = linkWorkload(0);
        double f = linkWorkload(1);
        double n = linkWorkload(2);
        ref = i == 0 ? r : std::min(ref, r);
        refMax = i == 0 ? r : std::max(refMax, r);
        off = i == 0 ? f : std::min(off, f);
        on = i == 0 ? n : std::min(on, n);
    }
    double resolutionPct = (refMax - ref) / ref * 100.0;
    double offPct = (off - ref) / ref * 100.0;
    double onPct = (on - off) / off * 100.0;
    bool onNoise = onPct < resolutionPct;
    if (onNoise && onPct < 0.0)
        onPct = 0.0;
    // 2% floor: min-of-N spreads on a quiet machine can shrink below
    // what rep-to-rep scheduling jitter actually is.
    bool offWithinNoise = offPct <= std::max(resolutionPct, 2.0);
    report.extra("link_stats_overhead_pct", onPct);
    report.extra("link_stats_off_pct", offPct);
    report.extra("link_stats_resolution_pct", resolutionPct);
    report.extraFlag("link_stats_overhead_noise", onNoise);
    report.extraFlag("link_stats_off_within_noise", offWithinNoise);
    std::cerr << "[bench] perf_micro: link-stats overhead " << onPct
              << "% on/off, flag-off " << offPct
              << "% vs plain (resolution " << resolutionPct << "%"
              << (onNoise ? ", below noise floor" : "") << ")\n";
}

/**
 * One mesh workload run for the reroute-path overhead probe.
 *
 * Modes map onto the three states the routing hot path can be in:
 *  0  fault-free: no injector, no fault branch is ever reached —
 *     byte-identical to a build without the fault layer;
 *  1  armed, static routing: an injector with a link-down clause is
 *     installed but adaptive routing is off (--no-reroute). Every hop
 *     pays the pre-existing tail-drop and router-stall probes;
 *  2  armed, adaptive routing: same injector with the default
 *     adaptive routing on, so every transfer additionally prescans
 *     its dimension-ordered route for down links at injection time.
 *
 * In the armed modes the clause's window sits far beyond the
 * simulated horizon, so no drop or reroute ever fires and the
 * simulated behaviour stays identical to mode 0: what is measured is
 * exactly the price of the dormant checks, and mode 2 minus mode 1
 * isolates what the adaptive-routing prescan adds on top.
 *
 * @return wall seconds spent inside sim.run().
 */
double
rerouteWorkload(int mode)
{
    desim::Simulator sim;
    std::optional<fault::FaultInjector> inj;
    mesh::MeshConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    if (mode != 0) {
        // Window opens ~17 simulated minutes in: linksConfigured() is
        // true (checks run per packet) but linkDown() never is.
        inj.emplace(fault::FaultPlan::parse(
            "seed=1; link:0->1:down@[1e9us,2e9us]"));
        cfg.adaptiveRouting = mode == 2;
    }
    mesh::MeshNetwork net{sim, cfg, nullptr, inj ? &*inj : nullptr};
    for (int node = 0; node < 16; ++node) {
        sim.spawn([](mesh::MeshNetwork *n, int node2) -> desim::Task<void> {
            for (;;)
                (void)co_await n->rxQueue(node2).receive();
        }(&net, node));
    }
    sim.spawn([](mesh::MeshNetwork *n) -> desim::Task<void> {
        stats::Rng rng{29};
        for (int i = 0; i < 4000; ++i) {
            int src = static_cast<int>(rng.below(16));
            int dst = static_cast<int>(rng.below(16));
            if (src == dst)
                continue;
            mesh::Packet pkt;
            pkt.src = src;
            pkt.dst = dst;
            pkt.bytes = 32;
            (void)co_await n->transfer(std::move(pkt));
        }
    }(&net));
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Reroute-path (adaptive routing) overhead, same protocol as the
 * other probes: shared warm-up, interleaved min-of-N reps, the
 * fault-free baseline's own spread as the measurement resolution.
 *
 * Two results matter downstream:
 *  - fault_arm_pct: the armed-but-static fault machinery (tail-drop
 *    and stall probes on every hop) over fault-free — pre-existing
 *    cost, reported for visibility but not gated: it is only paid
 *    when a fault plan is explicitly installed;
 *  - reroute_overhead_within_noise: turning adaptive routing on must
 *    cost nothing measurable over the same armed-static run. Actual
 *    reroutes around a down link are degraded operation and may cost
 *    whatever the detour costs; the prescan every packet pays on a
 *    healthy (if armed) network is not allowed to. bench_compare.py
 *    hard-fails when the flag is false.
 */
void
reportRerouteOverhead(cchar::bench::SelfReport &report)
{
    constexpr int kReps = 7;
    rerouteWorkload(0); // warm-up: allocator, frame pools, code paths
    rerouteWorkload(1);
    rerouteWorkload(2);

    double ref = 0.0, arm = 0.0, armMax = 0.0, ad = 0.0;
    for (int i = 0; i < kReps; ++i) {
        // Interleaved so slow drift (thermal, cgroup) hits all sides.
        double r = rerouteWorkload(0);
        double s = rerouteWorkload(1);
        double a = rerouteWorkload(2);
        ref = i == 0 ? r : std::min(ref, r);
        arm = i == 0 ? s : std::min(arm, s);
        armMax = i == 0 ? s : std::max(armMax, s);
        ad = i == 0 ? a : std::min(ad, a);
    }
    // The armed-static side is the baseline the gated delta is taken
    // against, so its own spread is the measurement resolution here.
    double resolutionPct = (armMax - arm) / arm * 100.0;
    double armPct = (arm - ref) / ref * 100.0;
    double overheadPct = (ad - arm) / arm * 100.0;
    bool noise = overheadPct < resolutionPct;
    if (noise && overheadPct < 0.0)
        overheadPct = 0.0;
    // Same 2% floor as the link-stats probe: min-of-N spreads on a
    // quiet machine can shrink below real scheduling jitter.
    bool withinNoise = overheadPct <= std::max(resolutionPct, 2.0);
    report.extra("fault_arm_pct", armPct);
    report.extra("reroute_overhead_pct", overheadPct);
    report.extra("reroute_resolution_pct", resolutionPct);
    report.extraFlag("reroute_overhead_noise", noise);
    report.extraFlag("reroute_overhead_within_noise", withinNoise);
    std::cerr << "[bench] perf_micro: reroute prescan overhead "
              << overheadPct << "% adaptive vs static on an armed "
              << "network, arming itself " << armPct
              << "% vs fault-free (resolution " << resolutionPct << "%"
              << (noise ? ", below noise floor" : "") << ")\n";
}

/**
 * One four-job sweep for the journal-overhead probe, optionally with
 * the durable job journal attached. The journal's cost per job is one
 * record format + one O_APPEND write + one fdatasync, paid between
 * jobs — never inside the simulation — so it should amortize to a few
 * percent against real job runtimes.
 *
 * @return wall seconds for the whole sweep run.
 */
double
journalWorkload(bool withJournal, const std::string &path)
{
    sweep::SweepSpec spec;
    spec.apps = {"is"};
    spec.procs = {4};
    spec.loads = {0.2};
    spec.seeds = {1, 2, 3, 4};
    sweep::SweepRunOptions opts;
    opts.workers = 1;
    if (withJournal)
        opts.journalPath = path;
    auto t0 = std::chrono::steady_clock::now();
    sweep::SweepResult result = sweep::SweepEngine{spec}.run(opts);
    benchmark::DoNotOptimize(result.failures());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Durable-journal overhead, same protocol as the other probes: shared
 * warm-up, interleaved min-of-N reps, the journal-off baseline's own
 * spread as the measurement resolution.
 *
 * The within-noise floor is max(resolution, 5%) rather than the
 * link-stats probe's 2%: each journal append carries a real fsync,
 * and fsync latency on CI-grade storage is too erratic to gate
 * tighter without flaking — the guarantee worth enforcing is
 * "journaling stays in the single-digit percent range", not "fsync
 * is free". bench_compare.py hard-fails the flag when it goes false.
 */
void
reportJournalOverhead(cchar::bench::SelfReport &report)
{
    constexpr int kReps = 7;
    const std::string path = "bench_journal_probe.jsonl";
    journalWorkload(false, path); // warm-up
    journalWorkload(true, path);

    double base = 0.0, baseMax = 0.0, jrnl = 0.0;
    for (int i = 0; i < kReps; ++i) {
        // Interleaved so slow drift (thermal, cgroup) hits both sides.
        double b = journalWorkload(false, path);
        double j = journalWorkload(true, path);
        base = i == 0 ? b : std::min(base, b);
        baseMax = i == 0 ? b : std::max(baseMax, b);
        jrnl = i == 0 ? j : std::min(jrnl, j);
    }
    std::remove(path.c_str());
    double resolutionPct = (baseMax - base) / base * 100.0;
    double overheadPct = (jrnl - base) / base * 100.0;
    bool noise = overheadPct < resolutionPct;
    if (noise && overheadPct < 0.0)
        overheadPct = 0.0;
    bool withinNoise = overheadPct <= std::max(resolutionPct, 5.0);
    report.extra("journal_overhead_pct", overheadPct);
    report.extra("journal_resolution_pct", resolutionPct);
    report.extraFlag("journal_overhead_noise", noise);
    report.extraFlag("journal_overhead_within_noise", withinNoise);
    std::cerr << "[bench] perf_micro: journal overhead " << overheadPct
              << "% (resolution " << resolutionPct << "%"
              << (noise ? ", below noise floor" : "") << ")\n";
}

/**
 * Synthetic-generator throughput: messages per wall second of
 * SyntheticTrafficGenerator::run on a model fitted from a real `is`
 * characterization, rescaled to a fixed 100k-message budget so every
 * rep (and every machine) does identical work. Min-of-N discards
 * scheduler noise; the resulting synth_messages_per_sec rate is
 * tracked by bench_compare.py like the kernel throughput rates —
 * model replay "at scale" is only usable while millions of messages
 * stay in seconds, so a silent generator slowdown must surface here.
 */
void
reportSynthThroughput(cchar::bench::SelfReport &report)
{
    constexpr int kReps = 7;
    constexpr std::size_t kMessages = 100000;

    auto app = apps::makeSharedMemoryApp("is");
    ccnuma::MachineConfig mcfg;
    mcfg.mesh.width = 4;
    mcfg.mesh.height = 4;
    core::CharacterizationPipeline pipeline;
    core::CharacterizationReport seed = pipeline.runDynamic(*app, mcfg);
    core::SyntheticModel model =
        core::SyntheticModel::fromReport(seed).scaleTo(0, kMessages);

    auto once = [&model] {
        auto t0 = std::chrono::steady_clock::now();
        core::DriveResult r = core::SyntheticTrafficGenerator::run(
            model, core::SynthRunOptions{});
        benchmark::DoNotOptimize(r.makespan);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    once(); // warm-up: allocator, frame pools, code paths
    double best = 0.0;
    for (int i = 0; i < kReps; ++i) {
        double t = once();
        best = i == 0 ? t : std::min(best, t);
    }
    double rate = static_cast<double>(model.totalMessages()) / best;
    report.extra("synth_messages_per_sec", rate);
    std::cerr << "[bench] perf_micro: synth throughput " << rate
              << " msgs/s (" << model.totalMessages()
              << " messages, min of " << kReps << ")\n";
}

} // namespace

// Expanded BENCHMARK_MAIN() so the SelfReport registry wraps the runs.
int
main(int argc, char **argv)
{
    cchar::bench::SelfReport selfReport{"perf_micro"};
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    reportCkptOverhead(selfReport);
    reportLinkStatsOverhead(selfReport);
    reportRerouteOverhead(selfReport);
    reportJournalOverhead(selfReport);
    reportSynthThroughput(selfReport);
    // Event/message totals scale with google-benchmark's adaptive
    // iteration counts, so only the rate fields are comparable runs.
    selfReport.extraFlag("counts_deterministic", false);
    benchmark::Shutdown();
    return 0;
}
