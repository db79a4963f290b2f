/**
 * @file
 * Tests for the per-link network-weather layer: tracker semantics
 * (interning, lazy EarlyRelease closing, queue-depth integrals,
 * window folding, capacity caps), exact agreement between the sink
 * and the mesh's own channel-utilization statistics, the weather
 * analyzer on synthetic loads with known utilization / Gini /
 * congestion-knee answers, report gating (default outputs carry no
 * link-stats artifacts), HTML determinism, and a fault-provoked
 * end-to-end run where a router stall raises a ranked hotspot.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "core/analyzers.hh"
#include "core/report.hh"
#include "core/report_html.hh"
#include "mesh/mesh.hh"
#include "obs/obs.hh"
#include "sweep/engine.hh"
#include "sweep/spec.hh"

namespace {

using namespace cchar;
using obs::kLinkInject;
using obs::LinkStatsTracker;

mesh::MeshConfig
mesh2x2()
{
    mesh::MeshConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    cfg.flitBytes = 8;
    cfg.routerDelay = 0.04;
    cfg.flitTime = 0.01;
    return cfg;
}

// --------------------------------------------------------------------
// Tracker semantics

TEST(LinkStatsTracker, DeclareInternsStableIds)
{
    LinkStatsTracker t;
    int a = t.declareLink(0, 0, 0);
    int b = t.declareLink(0, 1, 0);
    int inj = t.declareLink(0, kLinkInject, 0);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(inj, 2);
    EXPECT_EQ(t.declareLink(0, 0, 0), a); // re-declare: same id
    EXPECT_EQ(t.links(), 3);
    EXPECT_EQ(t.channelLinks(), 2); // injection port excluded
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(LinkStatsTracker, CapRefusesAndCountsDropped)
{
    LinkStatsTracker t{/*maxLinks=*/2};
    EXPECT_GE(t.declareLink(0, 0, 0), 0);
    EXPECT_GE(t.declareLink(0, 1, 0), 0);
    int refused = t.declareLink(0, 2, 0);
    EXPECT_EQ(refused, -1);
    EXPECT_EQ(t.links(), 2);
    t.onAcquire(refused, 1.0, 0.0, 64); // fact on a refused link
    EXPECT_EQ(t.dropped(), 2u);
}

TEST(LinkStatsTracker, LazyReleaseClampsMidRunQueries)
{
    LinkStatsTracker t;
    int l = t.declareLink(0, 0, 0);
    t.onAcquire(l, 10.0, 0.0, 64);
    t.onRelease(l, 20.0); // EarlyRelease: scheduled future free time

    // Mid-hold query clamps to now, not the scheduled end...
    EXPECT_DOUBLE_EQ(t.link(l).busyUs(15.0), 5.0);
    // ...and past the scheduled end it clamps to the end.
    EXPECT_DOUBLE_EQ(t.link(l).busyUs(25.0), 10.0);

    t.finish(30.0);
    EXPECT_DOUBLE_EQ(t.link(l).busyClosedUs, 10.0);
    EXPECT_EQ(t.link(l).packets, 1u);
    EXPECT_EQ(t.link(l).bytes, 64u);
}

TEST(LinkStatsTracker, FinishClosesOpenHolds)
{
    LinkStatsTracker t;
    int l = t.declareLink(0, 0, 0);
    t.onAcquire(l, 10.0, 0.0, 8); // never released (wedged run)
    t.finish(30.0);
    EXPECT_DOUBLE_EQ(t.link(l).busyClosedUs, 20.0);
    EXPECT_DOUBLE_EQ(t.endUs(), 30.0);
}

TEST(LinkStatsTracker, StallsCountOnlyWaitedAcquires)
{
    LinkStatsTracker t;
    int l = t.declareLink(0, 0, 0);
    t.onAcquire(l, 1.0, 0.0, 8);
    t.onRelease(l, 2.0);
    t.onAcquire(l, 5.0, 3.0, 8); // waited 3 us behind the first worm
    t.finish(10.0);
    EXPECT_EQ(t.link(l).stalls, 1u);
    EXPECT_DOUBLE_EQ(t.link(l).stallUs, 3.0);
}

TEST(LinkStatsTracker, QueueDepthIntegralAndPeak)
{
    LinkStatsTracker t;
    int l = t.declareLink(0, 0, 0);
    t.onRequest(l, 0.0);
    t.onRequest(l, 0.0);             // two worms queued from t=0
    t.onAcquire(l, 10.0, 10.0, 8);   // one granted at t=10
    t.finish(20.0);

    // depth 2 over [0,10), depth 1 over [10,20).
    EXPECT_DOUBLE_EQ(t.link(l).depthIntegralUs, 30.0);
    EXPECT_EQ(t.link(l).peakBacklog, 2);
    EXPECT_DOUBLE_EQ(t.link(l).depthTimeUs[2], 10.0);
    EXPECT_DOUBLE_EQ(t.link(l).depthTimeUs[1], 10.0);
}

TEST(LinkStatsTracker, WindowFoldingKeepsBoundedMemory)
{
    LinkStatsTracker t;
    int l = t.declareLink(0, 0, 0);
    // The series starts at 32 us windows (64 of them = 2048 us); a
    // fact at t=10000 forces three doublings to 256 us windows
    // (128 * 64 = 8192 still falls short).
    t.onAcquire(l, 9990.0, 0.0, 8);
    t.onRelease(l, 10000.0);
    t.onOffered(64, 10000.0);
    t.finish(10000.0);

    EXPECT_DOUBLE_EQ(t.windowUs(), 256.0);
    EXPECT_EQ(t.link(l).busyWindowUs.size(),
              static_cast<std::size_t>(LinkStatsTracker::kWindows));
    double busySum = 0.0;
    for (double v : t.link(l).busyWindowUs)
        busySum += v;
    EXPECT_NEAR(busySum, 10.0, 1e-9); // folding loses no mass
    EXPECT_EQ(t.offeredBytes(), 64u);
}

TEST(LinkStatsTracker, ResetForgetsEverything)
{
    LinkStatsTracker t;
    t.declareRouters(4);
    int l = t.declareLink(0, 0, 0);
    t.onAcquire(l, 1.0, 0.0, 8);
    t.onForward(0, 8);
    t.onOffered(8, 5000.0); // also widens the window
    t.reset();

    EXPECT_EQ(t.links(), 0);
    EXPECT_EQ(t.routers(), 0);
    EXPECT_EQ(t.channelLinks(), 0);
    EXPECT_EQ(t.offeredBytes(), 0u);
    EXPECT_DOUBLE_EQ(t.windowUs(), 32.0);
    EXPECT_DOUBLE_EQ(t.endUs(), 0.0);
    // Re-declaration starts a fresh universe with fresh ids.
    EXPECT_EQ(t.declareLink(3, 2, 0), 0);
}

// --------------------------------------------------------------------
// Mesh agreement: one source of truth for channel utilization

/** Drive identical 2x2-mesh traffic with or without the link sink. */
void
runMeshTraffic(bool withSink, double &avgUtil, double &maxUtil,
               LinkStatsTracker *sink)
{
    desim::Simulator sim;
    std::optional<obs::ScopedObservability> scope;
    if (withSink)
        scope.emplace(nullptr, nullptr, nullptr, nullptr, sink);
    trace::TrafficLog log;
    mesh::MeshNetwork net{sim, mesh2x2(), &log};
    for (int src = 0; src < 4; ++src) {
        sim.spawn([](mesh::MeshNetwork &n, int s) -> desim::Task<void> {
            mesh::Packet p;
            p.src = s;
            p.dst = 3 - s; // everyone crosses the mesh
            p.bytes = 64;
            (void)co_await n.transfer(p);
        }(net, src));
    }
    sim.run();
    if (sink)
        sink->finish(sim.now());
    avgUtil = net.averageChannelUtilization(sim.now());
    maxUtil = net.maxChannelUtilization(sim.now());
}

TEST(LinkStatsMesh, DelegatedUtilizationIsBitIdentical)
{
    double avgOff = 0.0, maxOff = 0.0, avgOn = 0.0, maxOn = 0.0;
    LinkStatsTracker sink;
    runMeshTraffic(false, avgOff, maxOff, nullptr);
    runMeshTraffic(true, avgOn, maxOn, &sink);

    // Not NEAR: the sink replicates the mesh's own lane iteration, so
    // the delegated statistics must be the same doubles bit for bit.
    EXPECT_EQ(avgOff, avgOn);
    EXPECT_EQ(maxOff, maxOn);
    EXPECT_GT(avgOn, 0.0);
}

TEST(LinkStatsMesh, TrafficIsAttributedToLinksAndRouters)
{
    double avg = 0.0, mx = 0.0;
    LinkStatsTracker sink;
    runMeshTraffic(true, avg, mx, &sink);

    // 2x2 mesh: 8 directed channel lanes + 4 injection ports.
    EXPECT_EQ(sink.channelLinks(), 8);
    EXPECT_EQ(sink.links(), 12);
    EXPECT_EQ(sink.routers(), 4);
    EXPECT_EQ(sink.offeredPackets(), 4u);
    EXPECT_EQ(sink.deliveredPackets(), 4u);
    EXPECT_EQ(sink.offeredBytes(), 4u * 64u);
    std::uint64_t forwards = 0;
    for (int r = 0; r < sink.routers(); ++r)
        forwards += sink.router(r).forwards;
    EXPECT_EQ(forwards, 4u * 2u); // every packet hops twice
}

// --------------------------------------------------------------------
// Weather analyzer: known utilization, Gini, hotspots, knee

/** A 2x2 universe where link (node,dir=0,vc=0) is busy [0,busyUs). */
LinkStatsTracker
syntheticLoad(const std::vector<double> &busyPerLink, double runEnd)
{
    LinkStatsTracker t;
    t.declareRouters(4);
    for (std::size_t i = 0; i < busyPerLink.size(); ++i) {
        int l = t.declareLink(static_cast<int>(i), 0, 0);
        if (busyPerLink[i] > 0.0) {
            t.onAcquire(l, 0.0, 0.0, 64);
            t.onRelease(l, busyPerLink[i]);
        }
    }
    t.finish(runEnd);
    return t;
}

TEST(LinkWeatherAnalyzer, KnownLoadUtilizationIsRecovered)
{
    LinkStatsTracker t = syntheticLoad({50.0, 0.0}, 100.0);
    core::LinkWeatherSummary s =
        core::LinkWeatherAnalyzer{}.analyze(t, mesh2x2());

    ASSERT_TRUE(s.enabled);
    EXPECT_DOUBLE_EQ(s.runEndUs, 100.0);
    EXPECT_EQ(s.totalLinks, 2);
    EXPECT_DOUBLE_EQ(s.maxUtilization, 0.5);
    EXPECT_DOUBLE_EQ(s.avgUtilization, 0.25);
    ASSERT_FALSE(s.links.empty());
    EXPECT_DOUBLE_EQ(s.links[0].utilization, 0.5);
    EXPECT_EQ(s.links[0].node, 0);
}

TEST(LinkWeatherAnalyzer, UniformLoadHasZeroGiniAndNoHotspots)
{
    LinkStatsTracker t =
        syntheticLoad({50.0, 50.0, 50.0, 50.0}, 100.0);
    core::LinkWeatherSummary s =
        core::LinkWeatherAnalyzer{}.analyze(t, mesh2x2());

    EXPECT_NEAR(s.gini, 0.0, 1e-9);
    EXPECT_EQ(s.hotspotCount, 0);
}

TEST(LinkWeatherAnalyzer, SingleHotLinkHasHighGiniAndIsFlagged)
{
    LinkStatsTracker t = syntheticLoad({50.0, 0.0, 0.0, 0.0}, 100.0);
    core::LinkWeatherSummary s =
        core::LinkWeatherAnalyzer{}.analyze(t, mesh2x2());

    // {0,0,0,0.5}: Gini = 2*(4*0.5)/(4*0.5) - 5/4 = 0.75.
    EXPECT_NEAR(s.gini, 0.75, 1e-9);
    EXPECT_EQ(s.hotspotCount, 1);
    ASSERT_FALSE(s.links.empty());
    EXPECT_TRUE(s.links[0].hotspot);
    EXPECT_GT(s.links[0].sustainedFraction, 0.0);
    EXPECT_FALSE(s.links[0].sparkline.empty());
    // Sparklines are rendered for hotspots only.
    EXPECT_TRUE(s.links.back().sparkline.empty());
}

TEST(LinkWeatherAnalyzer, TopLinksBoundElidesTheRest)
{
    LinkStatsTracker t =
        syntheticLoad({10.0, 20.0, 30.0, 40.0}, 100.0);
    core::LinkWeatherConfig cfg;
    cfg.topLinks = 2;
    core::LinkWeatherSummary s =
        core::LinkWeatherAnalyzer{cfg}.analyze(t, mesh2x2());

    ASSERT_EQ(s.links.size(), 2u);
    EXPECT_EQ(s.elidedLinks, 2);
    EXPECT_DOUBLE_EQ(s.links[0].utilization, 0.4); // ranked desc
    EXPECT_DOUBLE_EQ(s.links[1].utilization, 0.3);
}

TEST(LinkWeatherAnalyzer, CongestionKneeOnRampedLoad)
{
    LinkStatsTracker t;
    t.declareRouters(4);
    (void)t.declareLink(0, 0, 0);
    // Offered load ramps 100,200,...,1000 bytes across ten 32-us
    // windows; delivery keeps up until window 6, then halves.
    for (int w = 0; w < 10; ++w) {
        double at = w * 32.0 + 1.0;
        int offered = (w + 1) * 100;
        t.onOffered(offered, at);
        t.onDelivered(w < 6 ? offered : offered / 2, at);
    }
    t.finish(320.0);

    core::LinkWeatherSummary s =
        core::LinkWeatherAnalyzer{}.analyze(t, mesh2x2());
    // Baseline efficiency 1.0; window 6 (offered 700) is the first
    // below the 0.75 cutoff.
    EXPECT_NEAR(s.congestionOnsetLoad, 700.0 / 32.0, 1e-9);
    EXPECT_NEAR(s.congestionOnsetUs, 6 * 32.0, 1e-9);
}

TEST(LinkWeatherAnalyzer, NoKneeWhenDeliveryKeepsUp)
{
    LinkStatsTracker t;
    (void)t.declareLink(0, 0, 0);
    for (int w = 0; w < 10; ++w) {
        double at = w * 32.0 + 1.0;
        int offered = (w + 1) * 100;
        t.onOffered(offered, at);
        t.onDelivered(offered, at);
    }
    t.finish(320.0);

    core::LinkWeatherSummary s =
        core::LinkWeatherAnalyzer{}.analyze(t, mesh2x2());
    EXPECT_DOUBLE_EQ(s.congestionOnsetLoad, 0.0);
    EXPECT_LT(s.congestionOnsetUs, 0.0);
}

// --------------------------------------------------------------------
// Report gating and determinism

core::LinkWeatherSummary
smallWeather()
{
    LinkStatsTracker t = syntheticLoad({50.0, 10.0, 0.0, 0.0}, 100.0);
    return core::LinkWeatherAnalyzer{}.analyze(t, mesh2x2());
}

TEST(LinkWeatherReport, DefaultOutputsOmitLinkStats)
{
    core::CharacterizationReport report;
    report.application = "test";

    std::ostringstream text, json, html;
    report.print(text);
    report.writeJson(json);
    core::HtmlReportInputs inputs;
    inputs.report = &report;
    core::writeHtmlReport(html, inputs);

    EXPECT_EQ(text.str().find("Network weather"), std::string::npos);
    EXPECT_EQ(json.str().find("linkStats"), std::string::npos);
    EXPECT_EQ(html.str().find("Network weather"), std::string::npos);
}

TEST(LinkWeatherReport, EnabledSummaryAppearsEverywhere)
{
    core::CharacterizationReport report;
    report.application = "test";
    report.mesh = mesh2x2();
    report.linkStats = smallWeather();
    ASSERT_TRUE(report.linkStats.enabled);

    std::ostringstream text, json, html;
    report.print(text);
    report.writeJson(json);
    core::HtmlReportInputs inputs;
    inputs.report = &report;
    core::writeHtmlReport(html, inputs);

    EXPECT_NE(text.str().find("Network weather"), std::string::npos);
    EXPECT_NE(json.str().find("\"linkStats\""), std::string::npos);
    EXPECT_NE(json.str().find("\"gini\""), std::string::npos);
    EXPECT_NE(html.str().find("Network weather"), std::string::npos);
}

TEST(LinkWeatherReport, HtmlHeatmapRendersDeterministically)
{
    core::CharacterizationReport report;
    report.application = "test";
    report.mesh = mesh2x2();
    report.linkStats = smallWeather();

    core::HtmlReportInputs inputs;
    inputs.report = &report;
    std::ostringstream a, b;
    core::writeHtmlReport(a, inputs);
    core::writeHtmlReport(b, inputs);
    EXPECT_EQ(a.str(), b.str());
}

// --------------------------------------------------------------------
// Fault-provoked end-to-end congestion

sweep::SweepJob
jobFor(const std::string &app, const std::string &plan)
{
    sweep::SweepJob job;
    job.app = app;
    job.procs = 16;
    sweep::meshFactor(16, job.width, job.height);
    job.faultPlan = plan;
    job.linkStats = true;
    return job;
}

TEST(LinkStatsE2E, DisabledJobKeepsColumnsZeroed)
{
    obs::MetricsRegistry registry;
    sweep::SweepJob job = jobFor("mg", "");
    job.linkStats = false;
    sweep::JobOutcome out = sweep::SweepEngine::runJob(job, registry);
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_DOUBLE_EQ(out.maxLinkUtil, 0.0);
    EXPECT_DOUBLE_EQ(out.linkGini, 0.0);
    EXPECT_EQ(out.hotspotCount, 0u);
    EXPECT_EQ(registry.counterValue("link.hol_stalls"), 0u);
}

TEST(LinkStatsE2E, RouterStallRaisesRankedHotspot)
{
    obs::MetricsRegistry healthyReg, faultedReg;
    sweep::JobOutcome healthy =
        sweep::SweepEngine::runJob(jobFor("mg", ""), healthyReg);
    // Unwindowed so the stall covers the time-compressed trace
    // replay, which is the network the outcome describes.
    sweep::JobOutcome faulted = sweep::SweepEngine::runJob(
        jobFor("mg", "router:5:stall=50"), faultedReg);
    ASSERT_TRUE(healthy.ok()) << healthy.error;
    ASSERT_TRUE(faulted.ok()) << faulted.error;

    EXPECT_GT(faulted.maxLinkUtil, 0.0);
    EXPECT_GT(faulted.hotspotCount, 0u);
    // The stall serializes traffic behind one router: the run
    // stretches and the load concentrates on that router's lanes,
    // so the across-link imbalance rises well above the healthy
    // baseline.
    EXPECT_GT(faulted.makespan, healthy.makespan);
    EXPECT_GT(faulted.linkGini, healthy.linkGini);
}

} // namespace
