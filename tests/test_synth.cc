/**
 * @file
 * Round-trip golden suite for the synthesis loop:
 *
 *     characterize -> model JSON -> synthesize -> re-characterize
 *
 * For real applications (1d-fft and is on the dynamic strategy, mg on
 * the static one) the suite asserts that a replay of the fitted model
 * — at the original scale AND re-projected onto 4x the processors with
 * 10x the messages — stays within committed per-attribute KS
 * thresholds of the model. Plus the determinism contract (the same
 * model and seed produce byte-identical traffic) and the gating
 * contract (a report analyzed without synthesis renders exactly as
 * before: no "synthFidelity" key, no "Synthesis fidelity" section),
 * and what separates the two model entry points (fromReport and
 * fromJson).
 *
 * The KS thresholds are deliberately loose relative to what the seeds
 * actually achieve (see tools/ CLI goldens for exact values): they
 * bound regressions in the samplers and the scaling remap, not
 * sampling noise.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/core.hh"

namespace {

using namespace cchar;
using core::CharacterizationReport;
using core::SyntheticModel;
using core::SyntheticTrafficGenerator;
using core::SynthRunOptions;

// Committed fidelity thresholds of the round-trip suite. A replay of
// a model drawn from the model itself measures pure sampling error;
// anything near these bounds means a sampler or the scaling remap is
// distorting an attribute.
constexpr double kTemporalKsMax = 0.10;
constexpr double kSpatialKsMax = 0.06;
constexpr double kVolumeKsMax = 0.05;

/** `name` on a 4x4 CC-NUMA machine or a 4x`mpHeight` MP machine. */
CharacterizationReport
characterizeApp(const std::string &name,
                const core::PipelineOptions &opts = {}, int mpHeight = 4)
{
    core::CharacterizationPipeline pipeline{opts};
    if (auto app = apps::makeSharedMemoryApp(name)) {
        ccnuma::MachineConfig cfg;
        cfg.mesh.width = 4;
        cfg.mesh.height = 4;
        return pipeline.runDynamic(*app, cfg);
    }
    auto mpApp = apps::makeMessagePassingApp(name);
    EXPECT_NE(mpApp, nullptr) << name;
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = mpHeight;
    return pipeline.runStatic(*mpApp, cfg);
}

std::string
reportJson(const CharacterizationReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

void
expectFidelityBounded(const core::SynthesisFidelity &sf,
                      const std::string &label)
{
    EXPECT_TRUE(sf.enabled) << label;
    EXPECT_GT(sf.temporalSources, 0u) << label;
    EXPECT_LT(sf.temporalKs, kTemporalKsMax) << label;
    EXPECT_LT(sf.spatialKs, kSpatialKsMax) << label;
    EXPECT_LT(sf.volumeKs, kVolumeKsMax) << label;
}

// --------------------------------------------------------------------
// Round trip at the originating scale

class SynthRoundTrip : public ::testing::TestWithParam<const char *>
{};

TEST_P(SynthRoundTrip, ModelReplayKsBounded)
{
    const std::string app = GetParam();
    CharacterizationReport report = characterizeApp(app);

    // The loop under test is the serialized one: report -> JSON ->
    // model, exactly what `cchar synth` consumes.
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    EXPECT_EQ(model.nprocs, 16);
    EXPECT_EQ(model.application, app);
    ASSERT_FALSE(model.sources.empty());

    core::DriveResult synth =
        SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    EXPECT_EQ(synth.log.size(), model.totalMessages());

    core::SynthesisFidelity sf =
        core::computeSynthFidelity(model, synth.log);
    expectFidelityBounded(sf, app + " @1x");
}

TEST_P(SynthRoundTrip, ScaledReplayKsBounded)
{
    const std::string app = GetParam();
    CharacterizationReport report = characterizeApp(app);
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));

    const std::size_t target = 10 * model.totalMessages();
    SyntheticModel scaled = model.scaleTo(64, target);
    EXPECT_EQ(scaled.mesh.nodes(), 64);
    EXPECT_EQ(scaled.nprocs, 64);
    EXPECT_EQ(scaled.sources.size(), 4 * model.sources.size());
    // Per-source rounding may drift the total by at most half a
    // message per source.
    EXPECT_NEAR(static_cast<double>(scaled.totalMessages()),
                static_cast<double>(target),
                static_cast<double>(scaled.sources.size()));

    core::DriveResult synth =
        SyntheticTrafficGenerator::run(scaled, SynthRunOptions{});
    EXPECT_EQ(synth.log.nprocs(), 64);
    EXPECT_EQ(synth.log.size(), scaled.totalMessages());

    core::SynthesisFidelity sf =
        core::computeSynthFidelity(scaled, synth.log);
    expectFidelityBounded(sf, app + " @4x/10x");
}

INSTANTIATE_TEST_SUITE_P(Apps, SynthRoundTrip,
                         ::testing::Values("1d-fft", "is", "mg"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// --------------------------------------------------------------------
// Determinism

TEST(SynthDeterminism, SameModelAndSeedProduceIdenticalTraffic)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));

    auto runOnce = [&model] {
        return SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    };
    core::DriveResult a = runOnce();
    core::DriveResult b = runOnce();

    ASSERT_EQ(a.log.size(), b.log.size());
    for (std::size_t i = 0; i < a.log.size(); ++i) {
        const auto &ra = a.log.records()[i];
        const auto &rb = b.log.records()[i];
        EXPECT_EQ(ra.src, rb.src) << i;
        EXPECT_EQ(ra.dst, rb.dst) << i;
        EXPECT_EQ(ra.bytes, rb.bytes) << i;
        EXPECT_EQ(ra.injectTime, rb.injectTime) << i;
        EXPECT_EQ(ra.deliverTime, rb.deliverTime) << i;
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
}

TEST(SynthDeterminism, DifferentSeedsProduceDifferentTraffic)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));

    SynthRunOptions sa;
    sa.seed = 1;
    SynthRunOptions sb;
    sb.seed = 2;
    core::DriveResult a = SyntheticTrafficGenerator::run(model, sa);
    core::DriveResult b = SyntheticTrafficGenerator::run(model, sb);
    ASSERT_EQ(a.log.size(), b.log.size());
    EXPECT_NE(a.makespan, b.makespan);
}

// --------------------------------------------------------------------
// Scaling semantics

TEST(SynthScaling, RejectsNonMultipleProcs)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    EXPECT_THROW((void)model.scaleTo(17, 0), core::CCharError);
    EXPECT_THROW((void)model.scaleTo(8, 0), core::CCharError);
}

TEST(SynthScaling, TilePreservesDestinationLocality)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    SyntheticModel scaled = model.scaleTo(64, 0);

    // Every cloned source's destination mass stays inside its own
    // 4x4 tile of the 8x8 board — the remap preserves the original
    // hop-distance structure instead of smearing traffic globally.
    const int W = scaled.mesh.width; // 8
    for (const auto &sm : scaled.sources) {
        int tileX = (sm.source % W) / model.mesh.width;
        int tileY = (sm.source / W) / model.mesh.height;
        const auto &p = sm.destination.probabilities();
        for (std::size_t d = 0; d < p.size(); ++d) {
            if (p[d] <= 0.0)
                continue;
            int dx = (static_cast<int>(d) % W) / model.mesh.width;
            int dy = (static_cast<int>(d) / W) / model.mesh.height;
            EXPECT_EQ(dx, tileX) << "source " << sm.source;
            EXPECT_EQ(dy, tileY) << "source " << sm.source;
        }
    }
}

TEST(SynthScaling, MessageScaleKeepsPerSourceProportions)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    const std::size_t total = model.totalMessages();
    SyntheticModel scaled = model.scaleTo(0, 5 * total);

    ASSERT_EQ(scaled.sources.size(), model.sources.size());
    for (std::size_t i = 0; i < model.sources.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(scaled.sources[i].messageCount),
                    5.0 *
                        static_cast<double>(model.sources[i].messageCount),
                    1.0)
            << "source " << i;
    }
}

// --------------------------------------------------------------------
// Gating: reports produced without synthesis are unchanged

TEST(SynthGating, ReportWithoutSynthesisHasNoFidelitySection)
{
    CharacterizationReport report = characterizeApp("is");
    EXPECT_FALSE(report.synthFidelity.enabled);

    std::string json = reportJson(report);
    EXPECT_EQ(json.find("synthFidelity"), std::string::npos);

    std::ostringstream text;
    report.print(text);
    EXPECT_EQ(text.str().find("Synthesis fidelity"), std::string::npos);
}

TEST(SynthGating, FidelitySectionAppearsWhenEnabled)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    core::DriveResult synth =
        SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    report.synthFidelity = core::computeSynthFidelity(model, synth.log);
    report.synthFidelity.modelSource = "unit-test";

    std::string json = reportJson(report);
    EXPECT_NE(json.find("\"synthFidelity\":{"), std::string::npos);
    EXPECT_NE(json.find("\"modelSource\":\"unit-test\""),
              std::string::npos);

    std::ostringstream text;
    report.print(text);
    EXPECT_NE(text.str().find("Synthesis fidelity"), std::string::npos);
}

// --------------------------------------------------------------------
// The --synthetic validation path rides on the same generator

TEST(SynthLegacy, ValidateModelMatchesDirectGeneration)
{
    CharacterizationReport report = characterizeApp("is");
    core::ModelValidation v = core::validateReportModel(report);

    SyntheticModel model = SyntheticModel::fromReport(report);
    core::DriveResult direct =
        SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    EXPECT_TRUE(v.enabled);
    EXPECT_DOUBLE_EQ(v.network.latencyMean, direct.latencyMean);
    EXPECT_DOUBLE_EQ(v.latencyError,
                     (direct.latencyMean - report.network.latencyMean) /
                         report.network.latencyMean);
    EXPECT_DOUBLE_EQ(v.fidelity.maxKs(),
                     core::computeSynthFidelity(model, direct.log).maxKs());
}

// A report is a plain value: the model replay of a faulted run neither
// draws from that run's injector nor needs it to outlive the run.
TEST(SynthLegacy, FaultedReportReplaysFaultFree)
{
    CharacterizationReport report;
    {
        fault::FaultInjector injector{
            fault::FaultPlan::parse("seed=3; drop:p=0.05")};
        std::unique_ptr<apps::MessagePassingApp> app =
            apps::makeMessagePassingApp("mg");
        core::RunSpec spec;
        spec.messagePassingApp = app.get();
        spec.application = "mg";
        spec.faults = &injector;
        report = core::runCharacterization(spec, {}).report;
        const std::uint64_t drops = injector.drops();
        ASSERT_GT(drops, 0u);
        SyntheticModel model = SyntheticModel::fromReport(report);
        (void)SyntheticTrafficGenerator::run(model);
        EXPECT_EQ(injector.drops(), drops);
        (void)core::validateReportModel(report);
        EXPECT_EQ(injector.drops(), drops);
    }
    SyntheticModel model = SyntheticModel::fromReport(report);
    core::DriveResult direct = SyntheticTrafficGenerator::run(model);
    core::ModelValidation v = core::validateReportModel(report);
    EXPECT_EQ(direct.log.size(), model.totalMessages());
    EXPECT_DOUBLE_EQ(v.network.latencyMean, direct.latencyMean);
}

// --------------------------------------------------------------------
// The two model entry points: fromReport (in-memory report) and
// fromJson (the report JSON `cchar synth` reads)

/** `pmf` as the report JSON prints it (6 significant digits). */
stats::DiscretePmf
asPrinted(const stats::DiscretePmf &pmf)
{
    std::vector<double> printed;
    for (double p : pmf.probabilities()) {
        std::ostringstream os;
        os << p;
        printed.push_back(std::stod(os.str()));
    }
    return stats::DiscretePmf{printed};
}

// The JSON carries only each source's observed destination PMF, so the
// two entry points build the same model except for the destination:
// fromReport replays the classified pattern, fromJson the observed
// PMF. Everything else agrees. Past the JSON's rounding the two differ
// on 16 of 16 `is` sources, 15 of 16 `nbody`, 4 of 8 `3d-fft` and none
// of `mg`'s 8, whose classified models are their observed PMFs.
TEST(SynthModel, EntryPointsDifferOnlyInDestinationPmf)
{
    struct Case
    {
        const char *app;
        bool classifiedDiffers;
    };
    for (const Case &c : {Case{"is", true}, Case{"nbody", true},
                          Case{"3d-fft", true}, Case{"mg", false}}) {
        SCOPED_TRACE(c.app);
        // The standard machines (CC-NUMA 4x4, MP 4x2), phases on.
        core::PipelineOptions phases;
        phases.detectPhases = true;
        CharacterizationReport report = characterizeApp(c.app, phases, 2);
        SyntheticModel fromReport = SyntheticModel::fromReport(report);
        SyntheticModel fromJson =
            SyntheticModel::fromJson(reportJson(report));

        EXPECT_EQ(fromJson.mesh.width, fromReport.mesh.width);
        EXPECT_EQ(fromJson.mesh.height, fromReport.mesh.height);
        EXPECT_EQ(fromJson.mesh.topology, fromReport.mesh.topology);
        EXPECT_EQ(fromJson.mesh.virtualChannels,
                  fromReport.mesh.virtualChannels);
        EXPECT_EQ(fromJson.nprocs, fromReport.nprocs);
        EXPECT_EQ(fromJson.lengthPmf.size(), fromReport.lengthPmf.size());
        ASSERT_FALSE(fromReport.phases.empty());
        ASSERT_EQ(fromJson.phases.size(), fromReport.phases.size());
        for (std::size_t i = 0; i < fromReport.phases.size(); ++i) {
            EXPECT_EQ(fromJson.phases[i].index, fromReport.phases[i].index);
            EXPECT_EQ(fromJson.phases[i].messageCount,
                      fromReport.phases[i].messageCount);
        }

        ASSERT_FALSE(fromReport.sources.empty());
        ASSERT_EQ(fromJson.sources.size(), fromReport.sources.size());
        std::size_t differing = 0;
        for (std::size_t i = 0; i < fromReport.sources.size(); ++i) {
            const auto &r = fromReport.sources[i];
            const auto &j = fromJson.sources[i];
            EXPECT_EQ(j.source, r.source);
            EXPECT_EQ(j.messageCount, r.messageCount);
            EXPECT_EQ(j.interArrival->name(), r.interArrival->name());

            const core::SpatialFit *spatial = nullptr;
            for (const auto &sf : report.spatialPerSource)
                if (sf.source == r.source)
                    spatial = &sf;
            ASSERT_NE(spatial, nullptr) << "source " << r.source;
            EXPECT_EQ(r.destination.probabilities(),
                      spatial->classification.model.probabilities())
                << "source " << r.source;
            EXPECT_EQ(j.destination.probabilities(),
                      asPrinted(spatial->observed).probabilities())
                << "source " << r.source;
            // Past the JSON's 6-digit rounding, a classified pattern
            // that is not the observed PMF moves the replay.
            if (r.destination.tvd(j.destination) > 1e-4)
                ++differing;
        }
        if (c.classifiedDiffers)
            EXPECT_GT(differing, 0u);
        else
            EXPECT_EQ(differing, 0u);
    }
}

// A source that the report's per-source tables cannot index (outside
// [0, nprocs), or past the end of perSourceCounts) is skipped, not
// read out of bounds.
TEST(SynthModel, FromReportSkipsSourcesItCannotIndex)
{
    CharacterizationReport report;
    report.application = "hand-built";
    report.nprocs = 2;
    report.mesh.width = 2;
    report.mesh.height = 1;
    report.volume.perSourceCounts = {3.0, 4.0};
    report.volume.lengthPmf = {{8, 1.0}};
    report.temporalAggregate.fit.dist =
        stats::distributionFromName("exponential", std::vector{1.0}, 0);
    ASSERT_NE(report.temporalAggregate.fit.dist, nullptr);
    for (int src : {0, 5, 1}) {
        core::SpatialFit sf;
        sf.source = src;
        sf.observed = stats::DiscretePmf{{0.5, 0.5}};
        sf.classification.model = sf.observed;
        report.spatialPerSource.push_back(sf);
    }

    SyntheticModel model = SyntheticModel::fromReport(report);
    ASSERT_EQ(model.sources.size(), 2u);
    EXPECT_EQ(model.sources[0].source, 0);
    EXPECT_EQ(model.sources[0].messageCount, 3u);
    EXPECT_EQ(model.sources[1].source, 1);
    EXPECT_EQ(model.sources[1].messageCount, 4u);
}

// The model replay runs under its caller's watchdog, so a sweep job's
// deadline or a second SIGINT (both set the cancel flag) stops it.
TEST(SynthLegacy, CancelFlagStopsModelReplay)
{
    CharacterizationReport report = characterizeApp("is");
    std::atomic<bool> cancel{true};
    desim::WatchdogConfig watchdog;
    watchdog.cancelFlag = &cancel;
    try {
        (void)core::validateReportModel(report, {}, watchdog);
        ADD_FAILURE() << "the model replay ignored its cancel flag";
    } catch (const desim::WatchdogError &e) {
        EXPECT_TRUE(e.cancelled());
    }
    // Armed but never cancelled, the watchdog changes no result.
    cancel = false;
    EXPECT_DOUBLE_EQ(
        core::validateReportModel(report, {}, watchdog).network.latencyMean,
        core::validateReportModel(report).network.latencyMean);
}

} // namespace
