/**
 * @file
 * Tests for the per-rank activity layer: tracker semantics (nesting,
 * finish, capacity caps), the desynchronization analyzer on
 * hand-crafted interval traces with known skew, synthetic idle waves
 * the detector must recover within tolerance, report gating (default
 * outputs carry no rank-activity artifacts), HTML determinism, the
 * flow.dropped metric, and a fault-provoked end-to-end run where a
 * router stall launches a measurable wave.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/analyzers.hh"
#include "core/report.hh"
#include "core/report_html.hh"
#include "obs/obs.hh"
#include "sweep/engine.hh"
#include "sweep/spec.hh"

namespace {

using namespace cchar;
using obs::RankActivityTracker;
using obs::RankState;

// --------------------------------------------------------------------
// Tracker semantics

TEST(RankActivityTracker, NestingCollapsesToOutermost)
{
    RankActivityTracker t;
    t.beginBlocked(0, RankState::BlockedSend, 10.0);
    t.beginBlocked(0, RankState::BlockedRecv, 12.0); // nested
    t.endBlocked(0, 14.0);
    t.endBlocked(0, 20.0);

    ASSERT_EQ(t.ranks(), 1);
    const obs::RankRecord &rec = t.record(0);
    ASSERT_EQ(rec.blocked.size(), 1u);
    EXPECT_DOUBLE_EQ(rec.blocked[0].beginUs, 10.0);
    EXPECT_DOUBLE_EQ(rec.blocked[0].endUs, 20.0);
    EXPECT_EQ(rec.blocked[0].state, RankState::BlockedSend);
}

TEST(RankActivityTracker, FinishClosesOpenIntervals)
{
    RankActivityTracker t;
    t.beginBlocked(2, RankState::BlockedRecv, 5.0);
    t.finish(50.0);

    ASSERT_EQ(t.ranks(), 3);
    const obs::RankRecord &rec = t.record(2);
    ASSERT_EQ(rec.blocked.size(), 1u);
    EXPECT_DOUBLE_EQ(rec.blocked[0].endUs, 50.0);
    EXPECT_DOUBLE_EQ(t.endUs(), 50.0);
}

TEST(RankActivityTracker, UnmatchedEndIsIgnored)
{
    RankActivityTracker t;
    t.endBlocked(0, 10.0); // never began: must not crash or record
    EXPECT_EQ(t.blockedIntervals(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(RankActivityTracker, CapsCountDropped)
{
    RankActivityTracker t{/*maxIntervalsPerRank=*/2,
                          /*maxMarkersPerRank=*/1};
    for (int i = 0; i < 4; ++i) {
        t.beginBlocked(0, RankState::BlockedRecv, 10.0 * i);
        t.endBlocked(0, 10.0 * i + 5.0);
    }
    t.noteMarker(0, 1.0);
    t.noteMarker(0, 2.0);

    EXPECT_EQ(t.blockedIntervals(), 2u);
    EXPECT_EQ(t.record(0).markers.size(), 1u);
    EXPECT_EQ(t.dropped(), 3u); // 2 intervals + 1 marker
}

// --------------------------------------------------------------------
// Analyzer: skew, comm merge, idle fractions

TEST(RankActivityAnalyzer, KnownSkewIsRecovered)
{
    RankActivityTracker t;
    // Marker 0 at 100 + 2r, marker 1 at 200 + 4r across 4 ranks:
    // skews {-3,-1,1,3} then {-6,-2,2,6}.
    for (int r = 0; r < 4; ++r) {
        t.noteMarker(r, 100.0 + 2.0 * r);
        t.noteMarker(r, 200.0 + 4.0 * r);
    }
    t.finish(300.0);

    core::RankActivitySummary s =
        core::RankActivityAnalyzer{}.analyze(t);
    ASSERT_TRUE(s.enabled);
    EXPECT_EQ(s.markerSamples, 2u);
    EXPECT_NEAR(s.maxAbsSkewUs, 6.0, 1e-9);
    ASSERT_EQ(s.ranks.size(), 4u);
    EXPECT_NEAR(s.ranks[0].meanSkewUs, -4.5, 1e-9);
    EXPECT_NEAR(s.ranks[3].meanSkewUs, 4.5, 1e-9);
    EXPECT_NEAR(s.ranks[3].maxAbsSkewUs, 6.0, 1e-9);
}

TEST(RankActivityAnalyzer, SkewUsesMinMarkerCount)
{
    RankActivityTracker t;
    t.noteMarker(0, 100.0);
    t.noteMarker(0, 200.0);
    t.noteMarker(1, 110.0); // rank 1 reached only one barrier
    t.finish(300.0);

    core::RankActivitySummary s =
        core::RankActivityAnalyzer{}.analyze(t);
    EXPECT_EQ(s.markerSamples, 1u);
    EXPECT_NEAR(s.maxAbsSkewUs, 5.0, 1e-9); // {100,110}: skew +-5
}

TEST(RankActivityAnalyzer, OverlappingCommSpansAreMerged)
{
    RankActivityTracker t;
    t.noteComm(0, 0.0, 10.0);
    t.noteComm(0, 5.0, 20.0);  // overlaps the first
    t.noteComm(0, 30.0, 40.0); // disjoint
    t.finish(100.0);

    core::RankActivitySummary s =
        core::RankActivityAnalyzer{}.analyze(t);
    ASSERT_EQ(s.ranks.size(), 1u);
    EXPECT_NEAR(s.ranks[0].commUs, 30.0, 1e-9);
}

TEST(RankActivityAnalyzer, IdleFractionMatchesBlockedShare)
{
    RankActivityTracker t;
    t.beginBlocked(0, RankState::BlockedRecv, 0.0);
    t.endBlocked(0, 50.0);
    t.finish(100.0);

    core::RankActivitySummary s =
        core::RankActivityAnalyzer{}.analyze(t);
    ASSERT_EQ(s.ranks.size(), 1u);
    EXPECT_NEAR(s.ranks[0].idleFraction, 0.5, 1e-9);
    EXPECT_NEAR(s.ranks[0].blockedRecvUs, 50.0, 1e-9);
    EXPECT_NEAR(s.ranks[0].computeUs, 50.0, 1e-9);
}

// --------------------------------------------------------------------
// Analyzer: idle-wave detection

/** One long blocked front per rank, begin = t0 + lag * rank. */
RankActivityTracker
waveTracker(int ranks, double t0, double lag, double duration)
{
    RankActivityTracker t;
    for (int r = 0; r < ranks; ++r) {
        double begin = t0 + lag * r;
        t.beginBlocked(r, RankState::BlockedRecv, begin);
        t.endBlocked(r, begin + duration);
    }
    t.finish(t0 + lag * ranks + duration + 100.0);
    return t;
}

TEST(RankActivityAnalyzer, SyntheticIdleWaveIsRecovered)
{
    // Fronts at 1000 + 50r across 8 ranks: one upward wave, speed
    // (8-1)/(50*7) = 0.02 ranks/us.
    RankActivityTracker t = waveTracker(8, 1000.0, 50.0, 600.0);
    core::RankActivitySummary s =
        core::RankActivityAnalyzer{}.analyze(t);

    ASSERT_EQ(s.waves.size(), 1u);
    const core::IdleWave &w = s.waves[0];
    EXPECT_EQ(w.rankBegin, 0);
    EXPECT_EQ(w.rankEnd, 7);
    EXPECT_EQ(w.extent, 8);
    EXPECT_GT(w.direction, 0);
    EXPECT_NEAR(w.tBeginUs, 1000.0, 1e-9);
    EXPECT_NEAR(w.speedRanksPerUs, 0.02, 0.002);
    EXPECT_EQ(w.phase, -1); // no phase segmentation supplied
}

TEST(RankActivityAnalyzer, DownwardWaveHasNegativeDirection)
{
    RankActivityTracker t;
    for (int r = 0; r < 6; ++r) {
        double begin = 1000.0 + 40.0 * (5 - r); // rank 5 blocks first
        t.beginBlocked(r, RankState::BlockedRecv, begin);
        t.endBlocked(r, begin + 500.0);
    }
    t.finish(2500.0);

    core::RankActivitySummary s =
        core::RankActivityAnalyzer{}.analyze(t);
    ASSERT_EQ(s.waves.size(), 1u);
    EXPECT_LT(s.waves[0].direction, 0);
    EXPECT_EQ(s.waves[0].rankBegin, 5);
    EXPECT_EQ(s.waves[0].rankEnd, 0);
    EXPECT_EQ(s.waves[0].extent, 6);
}

TEST(RankActivityAnalyzer, ShortBlocksDoNotFormWaves)
{
    // Same staggering, but every front is shorter than minBlockedUs.
    RankActivityTracker t = waveTracker(8, 1000.0, 50.0, 100.0);
    core::RankActivitySummary s =
        core::RankActivityAnalyzer{}.analyze(t);
    EXPECT_TRUE(s.waves.empty());
}

TEST(RankActivityAnalyzer, LaggardBeyondMaxLagBreaksTheChain)
{
    core::RankActivityConfig cfg;
    RankActivityTracker t;
    for (int r = 0; r < 6; ++r) {
        // Rank 3 blocks far too late to be part of the front.
        double begin = 1000.0 + 50.0 * r +
                       (r >= 3 ? cfg.maxLagUs * 3.0 : 0.0);
        t.beginBlocked(r, RankState::BlockedRecv, begin);
        t.endBlocked(r, begin + 600.0);
    }
    t.finish(20000.0);

    core::RankActivitySummary s =
        core::RankActivityAnalyzer{cfg}.analyze(t);
    ASSERT_EQ(s.waves.size(), 2u); // ranks 0..2 and 3..5 separately
    EXPECT_EQ(s.waves[0].extent, 3);
    EXPECT_EQ(s.waves[1].extent, 3);
}

// --------------------------------------------------------------------
// Report gating and determinism

core::RankActivitySummary
smallSummary()
{
    RankActivityTracker t = waveTracker(4, 1000.0, 50.0, 600.0);
    for (int r = 0; r < 4; ++r)
        t.noteMarker(r, 2000.0 + r);
    t.finish(2500.0);
    core::RankActivityConfig cfg;
    cfg.minRanks = 3;
    return core::RankActivityAnalyzer{cfg}.analyze(t);
}

TEST(RankActivityReport, DefaultOutputsOmitRankActivity)
{
    core::CharacterizationReport report;
    report.application = "test";

    std::ostringstream text, json, html;
    report.print(text);
    report.writeJson(json);
    core::HtmlReportInputs inputs;
    inputs.report = &report;
    core::writeHtmlReport(html, inputs);

    EXPECT_EQ(text.str().find("Rank activity"), std::string::npos);
    EXPECT_EQ(json.str().find("rankActivity"), std::string::npos);
    EXPECT_EQ(html.str().find("Desynchronization"), std::string::npos);
}

TEST(RankActivityReport, EnabledSummaryAppearsEverywhere)
{
    core::CharacterizationReport report;
    report.application = "test";
    report.rankActivity = smallSummary();
    ASSERT_TRUE(report.rankActivity.enabled);

    std::ostringstream text, json, html;
    report.print(text);
    report.writeJson(json);
    core::HtmlReportInputs inputs;
    inputs.report = &report;
    core::writeHtmlReport(html, inputs);

    EXPECT_NE(text.str().find("Rank activity"), std::string::npos);
    EXPECT_NE(json.str().find("\"rankActivity\""), std::string::npos);
    EXPECT_NE(json.str().find("\"waves\""), std::string::npos);
    EXPECT_NE(html.str().find("Rank activity"), std::string::npos);
    EXPECT_NE(html.str().find("Desynchronization"), std::string::npos);
}

TEST(RankActivityReport, HtmlRendersDeterministically)
{
    core::CharacterizationReport report;
    report.application = "test";
    report.rankActivity = smallSummary();

    core::HtmlReportInputs inputs;
    inputs.report = &report;
    std::ostringstream a, b;
    core::writeHtmlReport(a, inputs);
    core::writeHtmlReport(b, inputs);
    EXPECT_EQ(a.str(), b.str());
}

// --------------------------------------------------------------------
// flow.dropped metric (ring overwrite observability)

TEST(FlowDroppedMetric, RingOverflowIsCounted)
{
    obs::MetricsRegistry registry;
    obs::ScopedObservability scope{&registry};
    obs::FlowTracker flows{/*capacity=*/2};

    for (int i = 0; i < 5; ++i) {
        std::uint64_t id = flows.open(0, 0, 1, 64, 1.0 * i);
        flows.onInject(id, 1.0 * i + 0.1);
        flows.onDeliver(id, 1.0 * i + 0.5, 1, 0.0, 0.0);
    }

    EXPECT_EQ(flows.droppedRecords(), 3u);
    EXPECT_EQ(registry.counterValue("flow.dropped"), 3u);

    std::ostringstream json;
    registry.writeJson(json);
    EXPECT_NE(json.str().find("\"flow.dropped\""), std::string::npos);
}

// --------------------------------------------------------------------
// Fault-provoked end-to-end desynchronization

sweep::SweepJob
jobFor(const std::string &app, const std::string &plan)
{
    sweep::SweepJob job;
    job.app = app;
    job.procs = 16;
    sweep::meshFactor(16, job.width, job.height);
    job.faultPlan = plan;
    job.rankActivity = true;
    return job;
}

TEST(RankActivityE2E, FaultFreeSharedMemoryRunHasNoWaves)
{
    obs::MetricsRegistry registry;
    sweep::JobOutcome out =
        sweep::SweepEngine::runJob(jobFor("sor", ""), registry);
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.idleWaves, 0u);
    EXPECT_GT(out.skewMaxUs, 0.0);       // barriers still skew a little
    EXPECT_GT(out.idleFractionMean, 0.0);
}

TEST(RankActivityE2E, RouterStallLaunchesWave)
{
    obs::MetricsRegistry healthyReg, faultedReg;
    sweep::JobOutcome healthy =
        sweep::SweepEngine::runJob(jobFor("mg", ""), healthyReg);
    sweep::JobOutcome faulted = sweep::SweepEngine::runJob(
        jobFor("mg", "router:5:stall=300@[5ms,15ms]"), faultedReg);
    ASSERT_TRUE(healthy.ok()) << healthy.error;
    ASSERT_TRUE(faulted.ok()) << faulted.error;

    EXPECT_GT(faulted.idleWaves, 0u);
    EXPECT_GT(faulted.waveSpeedMax, 0.0);
    // The stall visibly desynchronizes the fleet beyond its natural
    // bulk-synchronous skew.
    EXPECT_GT(faulted.skewMaxUs, healthy.skewMaxUs);
    EXPECT_GT(faulted.idleWaves, healthy.idleWaves);
}

} // namespace
