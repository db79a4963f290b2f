/**
 * @file
 * End-to-end tests of the characterization pipeline: dynamic and
 * static strategies, trace replay, report content, synthetic traffic
 * generation and model validation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/fft1d.hh"
#include "apps/fft3d.hh"
#include "apps/is.hh"
#include "apps/mg.hh"
#include "core/core.hh"

namespace {

using namespace cchar;
using namespace cchar::core;

ccnuma::MachineConfig
machine4x4()
{
    ccnuma::MachineConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 4;
    return cfg;
}

mp::MpConfig
world8()
{
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 2;
    return cfg;
}

// --------------------------------------------------------------------
// Dynamic strategy end to end

TEST(PipelineDynamic, CharacterizesFft1D)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());

    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.application, "1d-fft");
    EXPECT_EQ(report.strategy, Strategy::Dynamic);
    EXPECT_EQ(report.nprocs, 16);
    EXPECT_GT(report.volume.messageCount, 100u);
    ASSERT_TRUE(report.temporalAggregate.fit.dist);
    EXPECT_GT(report.temporalAggregate.fit.gof.r2, 0.8);
    EXPECT_GT(report.temporalAggregate.stats.mean, 0.0);
    EXPECT_FALSE(report.spatialPerSource.empty());
    EXPECT_FALSE(report.hopDistancePmf.empty());
    EXPECT_GT(report.network.latencyMean, 0.0);
    EXPECT_GT(report.network.makespan, 0.0);
    // Length PMF: control (8B) and data (40B) message classes.
    ASSERT_EQ(report.volume.lengthPmf.size(), 2u);
    EXPECT_EQ(report.volume.lengthPmf[0].first, 8);
    EXPECT_EQ(report.volume.lengthPmf[1].first, 40);
}

TEST(PipelineDynamic, IsShowsFavoriteProcessorPattern)
{
    apps::IntegerSort::Params p;
    p.n = 512;
    p.buckets = 16;
    apps::IntegerSort app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    EXPECT_TRUE(report.verified);
    // Most non-zero sources must classify with favorite p0 (bimodal
    // or at least have p0 as their most frequent destination).
    int p0Favored = 0, classified = 0;
    for (const auto &sf : report.spatialPerSource) {
        if (sf.source == 0)
            continue;
        ++classified;
        if (sf.observed.argmax() == 0)
            ++p0Favored;
    }
    EXPECT_GE(p0Favored, classified * 2 / 3);
}

// --------------------------------------------------------------------
// Static strategy end to end

TEST(PipelineStatic, CharacterizesFft3D)
{
    apps::Fft3D::Params p;
    p.nx = p.ny = p.nz = 8;
    p.iterations = 2;
    apps::Fft3D app{p};
    CharacterizationPipeline pipeline;
    trace::Trace collected;
    auto report = pipeline.runStatic(app, world8(), &collected);

    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.strategy, Strategy::Static);
    EXPECT_EQ(report.nprocs, 8);
    EXPECT_GT(collected.size(), 50u);
    // The replayed log carries exactly the traced messages.
    EXPECT_EQ(report.volume.messageCount, collected.size());
    ASSERT_TRUE(report.temporalAggregate.fit.dist);
}

TEST(PipelineStatic, MgNeighbourPatternSurvivesReplay)
{
    apps::Multigrid::Params p;
    p.n = 16;
    p.levels = 3;
    p.vCycles = 1;
    apps::Multigrid app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runStatic(app, world8());
    EXPECT_TRUE(report.verified);
    // Locality: hop distance 1 well represented.
    ASSERT_GT(report.hopDistancePmf.size(), 1u);
    EXPECT_GT(report.hopDistancePmf[1], 0.2);
}

// --------------------------------------------------------------------
// Trace replay

TEST(Replay, PreservesPerSourceOrderAndGaps)
{
    trace::Trace t{4};
    t.add({0, 1, 64, trace::MessageKind::Data, 10.0});
    t.add({0, 2, 64, trace::MessageKind::Data, 5.0});
    t.add({1, 3, 32, trace::MessageKind::Data, 2.0});
    mesh::MeshConfig mesh;
    mesh.width = 2;
    mesh.height = 2;
    auto result = TraceReplayer::replay(t, mesh);
    ASSERT_EQ(result.log.size(), 3u);
    // Source 0's first message injects at t=10.
    const auto &recs = result.log.records();
    double inj0first = -1.0, inj0second = -1.0;
    for (const auto &r : recs) {
        if (r.src == 0 && r.dst == 1)
            inj0first = r.injectTime;
        if (r.src == 0 && r.dst == 2)
            inj0second = r.injectTime;
    }
    EXPECT_DOUBLE_EQ(inj0first, 10.0);
    // Second message: 5us after the first completed.
    EXPECT_GT(inj0second, inj0first + 5.0 - 1e-9);
}

TEST(Replay, OpenLoopInjectsWithoutWaiting)
{
    trace::Trace t{2};
    for (int i = 0; i < 10; ++i)
        t.add({0, 1, 4096, trace::MessageKind::Data, 0.1});
    mesh::MeshConfig mesh;
    mesh.width = 2;
    mesh.height = 1;
    auto blocking =
        TraceReplayer::replay(t, mesh, {.pacing = Pacing::Blocking});
    auto open = TraceReplayer::replay(t, mesh, {.pacing = Pacing::Open});
    // Open loop: all injections near t=i*0.1; blocking: spaced by
    // message service time.
    EXPECT_LT(open.log.records().back().injectTime,
              blocking.log.records().back().injectTime);
    EXPECT_GT(open.contentionMean, blocking.contentionMean);
}

TEST(Replay, RejectsOversizedTrace)
{
    trace::Trace t{16};
    t.add({0, 15, 8, trace::MessageKind::Data, 0.0});
    mesh::MeshConfig mesh;
    mesh.width = 2;
    mesh.height = 2;
    EXPECT_THROW(TraceReplayer::replay(t, mesh), std::invalid_argument);
}

// --------------------------------------------------------------------
// Report rendering

TEST(Report, PrintContainsAllSections)
{
    apps::Fft1D::Params p;
    p.n = 64;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    ccnuma::MachineConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    auto report = pipeline.runDynamic(app, cfg);
    std::ostringstream os;
    report.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("Temporal attribute"), std::string::npos);
    EXPECT_NE(text.find("Spatial attribute"), std::string::npos);
    EXPECT_NE(text.find("Volume attribute"), std::string::npos);
    EXPECT_NE(text.find("Network behaviour"), std::string::npos);
    EXPECT_NE(text.find("1d-fft"), std::string::npos);
    EXPECT_FALSE(report.summaryRow().empty());
}

// --------------------------------------------------------------------
// Synthetic traffic and validation

TEST(Synthetic, ModelFromReportCoversActiveSources)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    auto model = SyntheticModel::fromReport(report);
    EXPECT_EQ(model.nprocs, 16);
    EXPECT_FALSE(model.sources.empty());
    for (const auto &sm : model.sources) {
        EXPECT_TRUE(sm.interArrival);
        EXPECT_GT(sm.messageCount, 0u);
        EXPECT_EQ(sm.destination.size(), 16u);
    }
    EXPECT_FALSE(model.lengthPmf.empty());
}

TEST(Synthetic, GeneratorReproducesMessageCounts)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    auto model = SyntheticModel::fromReport(report);
    auto synth = SyntheticTrafficGenerator::run(model, {.seed = 5});
    std::size_t expected = 0;
    for (const auto &sm : model.sources)
        expected += sm.messageCount;
    EXPECT_EQ(synth.log.size(), expected);
    EXPECT_GT(synth.latencyMean, 0.0);
}

TEST(Synthetic, ValidationLatencyWithinFactorTwo)
{
    // The methodology claim: fitted distributions reproduce the
    // network behaviour of the original traffic to first order.
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    auto v = validateReportModel(report, {.seed = 11});
    EXPECT_GT(v.network.latencyMean, 0.0);
    EXPECT_LT(std::abs(v.latencyError), 1.0);
}

TEST(Synthetic, DeterministicGivenSeed)
{
    apps::IntegerSort::Params p;
    p.n = 256;
    p.buckets = 8;
    apps::IntegerSort app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    auto model1 = SyntheticModel::fromReport(report);
    auto model2 = SyntheticModel::fromReport(report);
    auto a = SyntheticTrafficGenerator::run(model1, {.seed = 9});
    auto b = SyntheticTrafficGenerator::run(model2, {.seed = 9});
    ASSERT_EQ(a.log.size(), b.log.size());
    EXPECT_DOUBLE_EQ(a.latencyMean, b.latencyMean);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

} // namespace

// --------------------------------------------------------------------
// Per-kind breakdown and structured pattern integration
// (appended extension tests)

namespace {

TEST(ReportExtensions, PerKindBreakdownPresent)
{
    apps::IntegerSort::Params p;
    p.n = 256;
    p.buckets = 8;
    apps::IntegerSort app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    ASSERT_FALSE(report.perKind.empty());
    std::size_t sum = 0;
    bool sawSync = false, sawData = false;
    for (const auto &kb : report.perKind) {
        sum += kb.volume.messageCount;
        if (kb.kind == trace::MessageKind::Sync)
            sawSync = true;
        if (kb.kind == trace::MessageKind::Data)
            sawData = true;
    }
    EXPECT_EQ(sum, report.volume.messageCount);
    EXPECT_TRUE(sawSync); // lock/barrier traffic
    EXPECT_TRUE(sawData); // line transfers
}

TEST(ReportExtensions, StructuredPatternFieldFilled)
{
    apps::IntegerSort::Params p;
    p.n = 256;
    p.buckets = 8;
    apps::IntegerSort app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    // IS converges on processor 0: the structural explanation is a
    // hot spot at node 0 (or at least a reported coverage).
    EXPECT_FALSE(report.structured.alternatives.empty());
    if (report.structured.pattern == StructuredPattern::HotSpot) {
        EXPECT_EQ(report.structured.parameter, 0);
    }
}

TEST(SyntheticExtensions, TimeScaleCompressesSchedule)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    auto m1 = SyntheticModel::fromReport(report);
    auto m2 = SyntheticModel::fromReport(report);
    auto normal = SyntheticTrafficGenerator::run(m1, {.seed = 3});
    auto loaded =
        SyntheticTrafficGenerator::run(m2, {.seed = 3, .timeScale = 0.25});
    EXPECT_LT(loaded.makespan, normal.makespan);
    EXPECT_GE(loaded.contentionMean, normal.contentionMean);
}

} // namespace

// --------------------------------------------------------------------
// Windowed (phase) temporal analysis (extension tests)

namespace {

TEST(WindowedAnalysis, CoversWholeRunAndCountsAllMessages)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    desim::Simulator sim;
    ccnuma::Machine machine{sim, machine4x4()};
    apps::launch(machine, app);
    machine.run();

    TemporalAnalyzer analyzer;
    auto windows = analyzer.analyzeWindows(machine.log(), 6);
    ASSERT_EQ(windows.size(), 6u);
    // Each window's gap count is (messages in window - 1); total
    // messages across windows equals the log size.
    std::size_t msgs = 0;
    for (const auto &w : windows)
        msgs += w.stats.count + (w.stats.count > 0 ? 1 : 0);
    EXPECT_LE(msgs, machine.log().size() + 6);
    EXPECT_GE(msgs, machine.log().size() / 2);
}

TEST(WindowedAnalysis, DetectsRateVariationAcrossPhases)
{
    // 1D-FFT alternates local stages (only barrier traffic) and
    // remote stages (heavy coherence traffic): windowed rates differ
    // by a large factor.
    apps::Fft1D::Params p;
    p.n = 256;
    apps::Fft1D app{p};
    desim::Simulator sim;
    ccnuma::Machine machine{sim, machine4x4()};
    apps::launch(machine, app);
    machine.run();

    TemporalAnalyzer analyzer;
    auto windows = analyzer.analyzeWindows(machine.log(), 8);
    double lo = 1e300, hi = 0.0;
    for (const auto &w : windows) {
        if (w.stats.count < 4)
            continue;
        double rate = 1.0 / w.stats.mean;
        lo = std::min(lo, rate);
        hi = std::max(hi, rate);
    }
    EXPECT_GT(hi, 2.0 * lo);
}

TEST(WindowedAnalysis, EmptyLogYieldsNoWindows)
{
    trace::TrafficLog log{4};
    TemporalAnalyzer analyzer;
    EXPECT_TRUE(analyzer.analyzeWindows(log, 4).empty());
}

} // namespace

// --------------------------------------------------------------------
// Paced synthetic injection (extension tests)

namespace {

TEST(SyntheticExtensions, PacedInjectionBoundsQueueing)
{
    apps::IntegerSort::Params p;
    p.n = 512;
    p.buckets = 16;
    apps::IntegerSort app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    auto mOpen = SyntheticModel::fromReport(report);
    auto mPaced = SyntheticModel::fromReport(report);
    auto open = SyntheticTrafficGenerator::run(mOpen, {.seed = 7});
    auto paced = SyntheticTrafficGenerator::run(
        mPaced, {.seed = 7, .maxOutstanding = 2});
    EXPECT_EQ(open.log.size(), paced.log.size());
    // Bounded outstanding messages can only lower queueing delays.
    EXPECT_LE(paced.contentionMean, open.contentionMean + 1e-9);
}

TEST(SyntheticExtensions, ValidateModelPacedVariant)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    auto v = validateReportModel(report, {.seed = 3, .maxOutstanding = 2});
    EXPECT_GT(v.network.latencyMean, 0.0);
    EXPECT_LT(std::abs(v.latencyError), 1.0);
}

} // namespace

// --------------------------------------------------------------------
// JSON export (extension tests)

namespace {

TEST(ReportJson, ContainsAllSectionsAndBalancedBraces)
{
    apps::Fft1D::Params p;
    p.n = 128;
    apps::Fft1D app{p};
    CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    std::ostringstream os;
    report.writeJson(os);
    std::string json = os.str();
    for (const char *key :
         {"\"application\"", "\"temporal\"", "\"spatial\"",
          "\"volume\"", "\"network\"", "\"perSource\"",
          "\"hopDistancePmf\"", "\"lengthPmf\"", "\"verified\":true"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    int depth = 0;
    bool inString = false;
    char prev = 0;
    for (char c : json) {
        if (c == '"' && prev != '\\')
            inString = !inString;
        if (!inString) {
            if (c == '{' || c == '[')
                ++depth;
            if (c == '}' || c == ']')
                --depth;
            EXPECT_GE(depth, 0);
        }
        prev = c;
    }
    EXPECT_EQ(depth, 0);
}

} // namespace
