/**
 * @file
 * Cross-module integration tests: full-pipeline determinism, the
 * bandwidth profiler, alternative machine shapes for every
 * application, end-to-end torus runs, and agreement between the
 * library entry points and the sweep engine.
 */

#include <gtest/gtest.h>

#include <memory>

#include "apps/cholesky.hh"
#include "apps/fft1d.hh"
#include "apps/fft3d.hh"
#include "apps/is.hh"
#include "apps/maxflow.hh"
#include "apps/mg.hh"
#include "apps/nbody.hh"
#include "apps/registry.hh"
#include "core/core.hh"
#include "sweep/engine.hh"

namespace {

using namespace cchar;
using namespace cchar::core;

ccnuma::MachineConfig
machineOf(int w, int h)
{
    ccnuma::MachineConfig cfg;
    cfg.mesh.width = w;
    cfg.mesh.height = h;
    return cfg;
}

TEST(Integration, FullPipelineIsDeterministic)
{
    auto runOnce = [] {
        apps::IntegerSort::Params p;
        p.n = 256;
        p.buckets = 8;
        apps::IntegerSort app{p};
        CharacterizationPipeline pipeline;
        return pipeline.runDynamic(app, machineOf(4, 4));
    };
    auto a = runOnce();
    auto b = runOnce();
    EXPECT_EQ(a.volume.messageCount, b.volume.messageCount);
    EXPECT_DOUBLE_EQ(a.temporalAggregate.stats.mean,
                     b.temporalAggregate.stats.mean);
    EXPECT_DOUBLE_EQ(a.network.latencyMean, b.network.latencyMean);
    EXPECT_DOUBLE_EQ(a.network.makespan, b.network.makespan);
    EXPECT_EQ(a.temporalAggregate.fit.dist->name(),
              b.temporalAggregate.fit.dist->name());
}

TEST(Integration, StaticPipelineIsDeterministic)
{
    auto runOnce = [] {
        apps::Fft3D::Params p;
        p.nx = p.ny = p.nz = 8;
        p.iterations = 1;
        apps::Fft3D app{p};
        CharacterizationPipeline pipeline;
        mp::MpConfig cfg;
        cfg.mesh.width = 4;
        cfg.mesh.height = 2;
        return pipeline.runStatic(app, cfg);
    };
    auto a = runOnce();
    auto b = runOnce();
    EXPECT_EQ(a.volume.messageCount, b.volume.messageCount);
    EXPECT_DOUBLE_EQ(a.network.makespan, b.network.makespan);
}

TEST(Integration, AllSharedMemoryAppsRunOn8Processors)
{
    CharacterizationPipeline pipeline;
    auto cfg = machineOf(4, 2);
    std::vector<std::unique_ptr<apps::SharedMemoryApp>> suite;
    {
        apps::Fft1D::Params p;
        p.n = 128;
        suite.push_back(std::make_unique<apps::Fft1D>(p));
    }
    {
        apps::IntegerSort::Params p;
        p.n = 256;
        p.buckets = 8;
        suite.push_back(std::make_unique<apps::IntegerSort>(p));
    }
    {
        apps::SparseCholesky::Params p;
        p.n = 16;
        suite.push_back(std::make_unique<apps::SparseCholesky>(p));
    }
    {
        apps::Maxflow::Params p;
        p.n = 12;
        suite.push_back(std::make_unique<apps::Maxflow>(p));
    }
    {
        apps::Nbody::Params p;
        p.n = 32;
        p.steps = 1;
        suite.push_back(std::make_unique<apps::Nbody>(p));
    }
    for (auto &app : suite) {
        auto report = pipeline.runDynamic(*app, cfg);
        EXPECT_TRUE(report.verified) << app->name();
        EXPECT_GT(report.volume.messageCount, 0u) << app->name();
        EXPECT_EQ(report.nprocs, 8) << app->name();
    }
}

TEST(Integration, DynamicStrategyWorksOnTorus)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    ccnuma::MachineConfig cfg = machineOf(4, 4);
    cfg.mesh.topology = mesh::Topology::Torus;
    cfg.mesh.virtualChannels = 2;
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, cfg);
    EXPECT_TRUE(report.verified);
    // Torus halves the worst-case distance: hop pmf ends earlier.
    double farTraffic = 0.0;
    for (std::size_t h = 5; h < report.hopDistancePmf.size(); ++h)
        farTraffic += report.hopDistancePmf[h];
    EXPECT_DOUBLE_EQ(farTraffic, 0.0);
}

TEST(Integration, BandwidthProfileAccountsAllBytes)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    desim::Simulator sim;
    ccnuma::Machine machine{sim, machineOf(4, 4)};
    apps::launch(machine, app);
    machine.run();

    auto profile = BandwidthAnalyzer::profile(machine.log(), 10);
    ASSERT_EQ(profile.size(), 10u);
    double end = machine.log().lastDeliverTime();
    double width = end / 10.0;
    double total = 0.0;
    for (double bw : profile)
        total += bw * width;
    double expect = 0.0;
    for (const auto &rec : machine.log().records())
        expect += rec.bytes;
    EXPECT_NEAR(total, expect, 1e-6 * expect);
}

TEST(Integration, BandwidthPerSourceSumsToAggregate)
{
    apps::IntegerSort::Params p;
    p.n = 256;
    p.buckets = 8;
    apps::IntegerSort app{p};
    desim::Simulator sim;
    ccnuma::Machine machine{sim, machineOf(4, 4)};
    apps::launch(machine, app);
    machine.run();

    auto all = BandwidthAnalyzer::profile(machine.log(), 5);
    std::vector<double> sum(5, 0.0);
    for (int src = 0; src < 16; ++src) {
        auto one = BandwidthAnalyzer::profile(machine.log(), 5, src);
        for (std::size_t w = 0; w < one.size(); ++w)
            sum[w] += one[w];
    }
    for (std::size_t w = 0; w < 5; ++w)
        EXPECT_NEAR(sum[w], all[w], 1e-9);
}

TEST(Integration, PeakToMeanDetectsBurstiness)
{
    // A flat profile has ratio 1; bursty traffic > 1.
    EXPECT_DOUBLE_EQ(
        BandwidthAnalyzer::peakToMean({5.0, 5.0, 5.0, 5.0}), 1.0);
    EXPECT_GT(BandwidthAnalyzer::peakToMean({0.0, 20.0, 0.0, 0.0}),
              3.9);
    EXPECT_DOUBLE_EQ(BandwidthAnalyzer::peakToMean({}), 0.0);
}

TEST(Integration, MgAndFft3DRunOn4Ranks)
{
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    CharacterizationPipeline pipeline;
    {
        apps::Fft3D::Params p;
        p.nx = p.ny = p.nz = 8;
        p.iterations = 1;
        apps::Fft3D app{p};
        auto report = pipeline.runStatic(app, cfg);
        EXPECT_TRUE(report.verified);
        EXPECT_EQ(report.nprocs, 4);
    }
    {
        apps::Multigrid::Params p;
        p.n = 16;
        p.levels = 3;
        p.vCycles = 1;
        apps::Multigrid app{p};
        auto report = pipeline.runStatic(app, cfg);
        EXPECT_TRUE(report.verified);
    }
}

/**
 * runDynamic/runStatic and a sweep job without a cancel flag run the
 * same path, so with rank-activity and link-stats trackers installed
 * they must report the same sink analytics.
 */
void
expectLibraryMatchesSweepJob(const std::string &app)
{
    sweep::SweepJob job;
    job.app = app;
    job.procs = 16;
    job.width = 4;
    job.height = 4;
    job.rankActivity = true;
    job.linkStats = true;
    obs::RankActivityTracker activity;
    obs::LinkStatsTracker links;
    obs::ScopedObservability scope{nullptr, nullptr, nullptr, &activity,
                                   &links};

    // The job installs (and then restores) its own sinks.
    obs::MetricsRegistry registry;
    sweep::JobOutcome outcome = sweep::SweepEngine::runJob(job, registry);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    CharacterizationPipeline pipeline;
    CharacterizationReport report;
    if (auto smApp = apps::makeSharedMemoryApp(app)) {
        report = pipeline.runDynamic(*smApp, machineOf(4, 4));
    } else {
        auto mpApp = apps::makeMessagePassingApp(app);
        ASSERT_NE(mpApp, nullptr);
        mp::MpConfig cfg;
        cfg.mesh.width = 4;
        cfg.mesh.height = 4;
        report = pipeline.runStatic(*mpApp, cfg);
    }
    ASSERT_TRUE(report.linkStats.enabled);
    ASSERT_TRUE(report.rankActivity.enabled);
    EXPECT_DOUBLE_EQ(report.linkStats.gini, outcome.linkGini);
    EXPECT_DOUBLE_EQ(report.linkStats.maxUtilization, outcome.maxLinkUtil);
    EXPECT_EQ(static_cast<std::uint64_t>(report.linkStats.hotspotCount),
              outcome.hotspotCount);
    EXPECT_DOUBLE_EQ(report.rankActivity.maxAbsSkewUs, outcome.skewMaxUs);
    EXPECT_EQ(report.rankActivity.waves.size(), outcome.idleWaves);
}

TEST(Integration, DynamicLibraryRunMatchesSweepJob)
{
    expectLibraryMatchesSweepJob("is");
}

TEST(Integration, StaticLibraryRunMatchesSweepJob)
{
    expectLibraryMatchesSweepJob("mg");
}

} // namespace
