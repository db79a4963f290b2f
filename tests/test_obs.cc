/**
 * @file
 * Tests of the observability layer: metrics registry semantics, tracer
 * ring behaviour and Chrome JSON export, windowed sampler, simulator
 * self-instrumentation, and the two system-level guarantees — byte
 * determinism of exports across identical runs, and zero perturbation
 * of simulation results when sinks are installed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "apps/fft1d.hh"
#include "apps/fft3d.hh"
#include "core/core.hh"
#include "core/jsonscan.hh"
#include "obs/json.hh"
#include "obs/obs.hh"

namespace {

using namespace cchar;

// --------------------------------------------------------------------
// Mini JSON syntax checker (no values kept — just well-formedness).

struct JsonChecker
{
    const std::string &s;
    std::size_t i = 0;

    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    parse()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return i == s.size();
    }

    void
    skipWs()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                                s[i] == '\n' || s[i] == '\r'))
            ++i;
    }

    bool
    literal(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (s.compare(i, n, lit) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            ++i;
        return i > start;
    }

    bool
    value()
    {
        skipWs();
        if (i >= s.size())
            return false;
        char c = s[i];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++i; // '{'
        skipWs();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (i >= s.size() || s[i] != ':')
                return false;
            ++i;
            if (!value())
                return false;
            skipWs();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != '}')
            return false;
        ++i;
        return true;
    }

    bool
    array()
    {
        ++i; // '['
        skipWs();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != ']')
            return false;
        ++i;
        return true;
    }
};

bool
wellFormedJson(const std::string &text)
{
    return JsonChecker{text}.parse();
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(MiniJson, AcceptsAndRejects)
{
    EXPECT_TRUE(wellFormedJson("{}"));
    EXPECT_TRUE(wellFormedJson(R"({"a":[1,2.5,-3e4],"b":null})"));
    EXPECT_TRUE(wellFormedJson(R"(["x",{"y":true},false])"));
    EXPECT_FALSE(wellFormedJson("{"));
    EXPECT_FALSE(wellFormedJson(R"({"a":})"));
    EXPECT_FALSE(wellFormedJson(R"({"a":1} trailing)"));
    EXPECT_FALSE(wellFormedJson(R"({"a" 1})"));
}

// --------------------------------------------------------------------
// Metrics registry

TEST(JsonString, EveryAsciiByteRoundTripsThroughWriterAndScanner)
{
    for (int c = 0x01; c <= 0x7f; ++c) {
        const std::string original = std::string{"a"} +
                                     static_cast<char>(c) + "z";
        std::ostringstream os;
        obs::writeJsonString(os, original);
        const std::string doc = os.str();
        // Strict JSON: no raw control byte, whatever the input held.
        for (char b : doc)
            EXPECT_GE(static_cast<unsigned char>(b), 0x20) << "byte " << c;
        EXPECT_TRUE(wellFormedJson(doc)) << "byte " << c << ": " << doc;
        core::JsonScanner js{doc, "json string"};
        EXPECT_EQ(js.readString(), original) << "byte " << c;
        EXPECT_TRUE(js.atEnd()) << "byte " << c;
    }
    // Malformed, truncated and non-ASCII \u escapes are rejected.
    for (std::string bad : {"\"\\u00g1\"", "\"\\u00\"", "\"\\u00e9\""}) {
        core::JsonScanner js{bad, "json string"};
        EXPECT_THROW(js.readString(), core::CCharError) << bad;
    }
}

TEST(Registry, CounterInterningAndValues)
{
    obs::MetricsRegistry reg;
    obs::Counter a = reg.counter("x.count");
    obs::Counter b = reg.counter("x.count"); // same slot
    a.add();
    b.add(4);
    EXPECT_EQ(a.value(), 5u);
    EXPECT_EQ(reg.counterValue("x.count"), 5u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
    EXPECT_TRUE(static_cast<bool>(a));
}

TEST(Registry, DetachedHandlesAreNoOps)
{
    obs::Counter c;
    obs::Gauge g;
    obs::Histogram h;
    c.add(7);
    g.set(1.0);
    g.high(2.0);
    h.record(3.0);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_FALSE(static_cast<bool>(c));
}

TEST(Registry, GaugeSetAndHighWaterMark)
{
    obs::MetricsRegistry reg;
    obs::Gauge g = reg.gauge("depth");
    g.set(3.0);
    g.high(2.0); // below: ignored
    EXPECT_EQ(reg.gaugeValue("depth"), 3.0);
    g.high(9.0);
    EXPECT_EQ(reg.gaugeValue("depth"), 9.0);
}

TEST(Registry, HistogramMoments)
{
    obs::MetricsRegistry reg;
    obs::Histogram h = reg.histogram("lat");
    h.record(1.0);
    h.record(2.0);
    h.record(4.0);
    const obs::HistogramData *d = reg.histogramData("lat");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->count, 3u);
    EXPECT_DOUBLE_EQ(d->sum, 7.0);
    EXPECT_DOUBLE_EQ(d->min, 1.0);
    EXPECT_DOUBLE_EQ(d->max, 4.0);
    EXPECT_DOUBLE_EQ(d->mean(), 7.0 / 3.0);
    EXPECT_EQ(reg.histogramData("missing"), nullptr);
}

TEST(Registry, HistogramBucketEdges)
{
    using H = obs::HistogramData;
    // Non-positive and sub-2^-16 values land in the underflow bucket.
    EXPECT_EQ(H::bucketOf(0.0), 0);
    EXPECT_EQ(H::bucketOf(-5.0), 0);
    EXPECT_EQ(H::bucketOf(std::ldexp(1.0, -20)), 0);
    // Overflow bucket.
    EXPECT_EQ(H::bucketOf(std::ldexp(1.0, 40)), H::kBuckets - 1);
    EXPECT_TRUE(std::isinf(H::upperBound(H::kBuckets - 1)));
    // Every in-range value lands in a bucket whose bounds contain it.
    for (double v : {1e-4, 0.5, 1.0, 3.0, 1024.0, 1e6}) {
        int b = H::bucketOf(v);
        ASSERT_GT(b, 0) << v;
        ASSERT_LT(b, H::kBuckets - 1) << v;
        EXPECT_LT(v, H::upperBound(b)) << v;
        EXPECT_GE(v, H::upperBound(b - 1)) << v;
    }
}

TEST(Registry, ResetZeroesButKeepsHandles)
{
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("c");
    obs::Histogram h = reg.histogram("h");
    c.add(10);
    h.record(1.0);
    reg.reset();
    EXPECT_EQ(reg.counterValue("c"), 0u);
    EXPECT_EQ(reg.histogramData("h")->count, 0u);
    c.add(2); // handle still attached to the same slot
    EXPECT_EQ(reg.counterValue("c"), 2u);
}

TEST(Registry, CapacityExhaustionThrows)
{
    obs::MetricsRegistry reg{2, 1, 1};
    (void)reg.counter("a");
    (void)reg.counter("b");
    (void)reg.counter("a"); // interned: no new slot
    EXPECT_THROW((void)reg.counter("c"), std::length_error);
    (void)reg.gauge("g");
    EXPECT_THROW((void)reg.gauge("g2"), std::length_error);
    (void)reg.histogram("h");
    EXPECT_THROW((void)reg.histogram("h2"), std::length_error);
}

TEST(Registry, JsonSnapshotIsWellFormed)
{
    obs::MetricsRegistry reg;
    reg.counter("msgs").add(3);
    reg.gauge("peak").set(2.5);
    obs::Histogram h = reg.histogram("lat\"q"); // name needing escape
    h.record(0.25);
    h.record(100.0);
    std::ostringstream os;
    reg.writeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(wellFormedJson(json)) << json;
    EXPECT_NE(json.find("\"msgs\":3"), std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

// --------------------------------------------------------------------
// Tracer

TEST(Tracer, RecordsSpansAndInstantsPerLane)
{
    obs::Tracer tr{16};
    int r0 = tr.lane("router:0");
    int r1 = tr.lane("router:1");
    EXPECT_EQ(tr.lane("router:0"), r0); // interned
    int msg = tr.name("msg");
    tr.span(r0, msg, 1.0, 2.0);
    tr.span(r1, msg, 1.5, 0.5, 3, 64);
    tr.instant(r0, tr.name("stall"), 2.0);
    EXPECT_EQ(tr.size(), 3u);
    EXPECT_EQ(tr.dropped(), 0u);
    EXPECT_EQ(tr.laneRecordCount(r0), 2u);
    EXPECT_EQ(tr.laneRecordCount(r1), 1u);
    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.lane("router:0"), r0); // interning survives clear
}

TEST(Tracer, RingOverflowDropsOldest)
{
    obs::Tracer tr{8};
    int l = tr.lane("x");
    int n = tr.name("e");
    for (int i = 0; i < 20; ++i)
        tr.span(l, n, static_cast<double>(i), 1.0);
    EXPECT_EQ(tr.size(), 8u);
    EXPECT_EQ(tr.dropped(), 12u);
    // Export keeps only the newest 8, oldest-first.
    std::ostringstream os;
    tr.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(wellFormedJson(json)) << json;
    EXPECT_EQ(json.find("\"ts\":11"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":12"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":12"), std::string::npos);
}

TEST(Tracer, ChromeJsonShape)
{
    obs::Tracer tr;
    int l = tr.lane("proc:a");
    tr.span(l, tr.name("work"), 0.0, 5.0, 7, 9);
    tr.instant(l, tr.name("mark"), 2.5);
    std::ostringstream os;
    tr.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(wellFormedJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"proc:a\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"d0\":7"), std::string::npos);
}

// --------------------------------------------------------------------
// Windowed sampler

TEST(Sampler, SeriesAndColumns)
{
    obs::WindowedSampler s;
    double level = 1.0;
    s.addSeries("level", [&level] { return level; });
    s.addSeries("twice", [&level] { return 2.0 * level; });
    s.sample(10.0);
    level = 3.0;
    s.sample(20.0);
    EXPECT_EQ(s.seriesCount(), 2u);
    EXPECT_EQ(s.sampleCount(), 2u);
    EXPECT_EQ(s.times(), (std::vector<double>{10.0, 20.0}));
    EXPECT_EQ(s.seriesValues(0), (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(s.seriesValues(1), (std::vector<double>{2.0, 6.0}));
    // Adding a series after sampling started would desynchronize.
    EXPECT_THROW(s.addSeries("late", [] { return 0.0; }),
                 std::logic_error);
    std::ostringstream os;
    s.writeJson(os);
    EXPECT_TRUE(wellFormedJson(os.str())) << os.str();
    EXPECT_NE(os.str().find("\"level\":[1,3]"), std::string::npos);
}

// --------------------------------------------------------------------
// Process-wide hooks

TEST(Hooks, ScopedInstallAndRestore)
{
    EXPECT_EQ(obs::metrics(), nullptr);
    obs::MetricsRegistry reg;
    obs::Tracer tr;
    {
        obs::ScopedObservability scoped{&reg, &tr};
        EXPECT_EQ(obs::metrics(), &reg);
        EXPECT_EQ(obs::tracer(), &tr);
        {
            obs::ScopedObservability inner{nullptr};
            EXPECT_EQ(obs::metrics(), nullptr);
            EXPECT_EQ(obs::tracer(), nullptr);
        }
        EXPECT_EQ(obs::metrics(), &reg);
    }
    EXPECT_EQ(obs::metrics(), nullptr);
    EXPECT_EQ(obs::tracer(), nullptr);
}

// --------------------------------------------------------------------
// Simulator self-instrumentation

desim::Task<void>
idleFor(desim::Simulator &sim, double total, double step)
{
    for (double t = 0.0; t < total; t += step)
        co_await sim.delay(step);
}

TEST(SimulatorObs, CountsEventsAndCalendarPeak)
{
    obs::MetricsRegistry reg;
    obs::ScopedObservability scoped{&reg};
    desim::Simulator sim;
    sim.spawn(idleFor(sim, 100.0, 1.0), "idler");
    sim.run();
    EXPECT_EQ(reg.counterValue("desim.events"), sim.processedEvents());
    EXPECT_GE(reg.counterValue("desim.events"), 100u);
    EXPECT_GE(reg.gaugeValue("desim.calendar_peak"), 1.0);
    EXPECT_GE(sim.wallSeconds(), 0.0);
}

TEST(SimulatorObs, ProcessLifetimeSpans)
{
    obs::Tracer tr;
    obs::ScopedObservability scoped{nullptr, &tr};
    desim::Simulator sim;
    sim.spawn(idleFor(sim, 10.0, 1.0), "worker");
    sim.run();
    EXPECT_EQ(tr.laneRecordCount(tr.lane("proc:worker")), 1u);
}

TEST(SimulatorObs, PeriodicTicksSampleAndTerminate)
{
    obs::WindowedSampler sampler;
    desim::Simulator sim;
    sampler.addSeries("depth", [&sim] {
        return static_cast<double>(sim.calendarSize());
    });
    sim.attachPeriodic(
        [&sampler](desim::SimTime t) { sampler.sample(t); }, 10.0);
    sim.spawn(idleFor(sim, 100.0, 1.0), "idler");
    sim.run(); // must drain: periodic ticks alone don't keep it alive
    EXPECT_GE(sampler.sampleCount(), 9u);
    EXPECT_LE(sampler.sampleCount(), 11u);
    EXPECT_DOUBLE_EQ(sampler.times().front(), 10.0);
    EXPECT_TRUE(sim.allProcessesDone());
}

TEST(SimulatorObs, TwoPeriodicChainsDoNotKeepEachOtherAlive)
{
    desim::Simulator sim;
    int ticksA = 0, ticksB = 0;
    sim.attachPeriodic([&ticksA](desim::SimTime) { ++ticksA; }, 7.0);
    sim.attachPeriodic([&ticksB](desim::SimTime) { ++ticksB; }, 13.0);
    sim.spawn(idleFor(sim, 50.0, 5.0), "idler");
    sim.run();
    EXPECT_LE(sim.now(), 50.0 + 13.0);
    EXPECT_GE(ticksA, 6);
    EXPECT_GE(ticksB, 3);
}

// --------------------------------------------------------------------
// System-level guarantees on a real workload

ccnuma::MachineConfig
machine4x4()
{
    ccnuma::MachineConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 4;
    return cfg;
}

std::string
reportJsonOfRun()
{
    apps::Fft1D app;
    core::CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

TEST(SystemObs, SinksDoNotPerturbTheSimulation)
{
    std::string bare = reportJsonOfRun();
    obs::MetricsRegistry reg;
    obs::Tracer tr;
    std::string observed;
    {
        obs::ScopedObservability scoped{&reg, &tr};
        observed = reportJsonOfRun();
    }
    // Metrics + tracing on: byte-identical characterization output.
    EXPECT_EQ(bare, observed);
}

TEST(SystemObs, ExportsAreDeterministicAcrossIdenticalRuns)
{
    auto runOnce = [](std::string &traceJson, std::string &metricsJson) {
        obs::MetricsRegistry reg;
        obs::Tracer tr;
        obs::ScopedObservability scoped{&reg, &tr};
        apps::Fft1D app;
        core::CharacterizationPipeline pipeline;
        (void)pipeline.runDynamic(app, machine4x4());
        // Wall-clock throughput is the one legitimately
        // run-dependent value; pin it so the comparison covers
        // every sim-time quantity.
        reg.gauge("desim.events_per_sec").set(0.0);
        std::ostringstream t, m;
        tr.writeChromeJson(t);
        reg.writeJson(m);
        traceJson = t.str();
        metricsJson = m.str();
    };
    std::string trace1, metrics1, trace2, metrics2;
    runOnce(trace1, metrics1);
    runOnce(trace2, metrics2);
    EXPECT_EQ(trace1, trace2);
    EXPECT_EQ(metrics1, metrics2);
}

TEST(SystemObs, MeshCounterMatchesReportedMessageCount)
{
    obs::MetricsRegistry reg;
    obs::Tracer tr;
    obs::ScopedObservability scoped{&reg, &tr};
    apps::Fft1D app;
    core::CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());

    EXPECT_EQ(reg.counterValue("mesh.messages"),
              report.volume.messageCount);
    EXPECT_GT(reg.counterValue("desim.events"), 0u);
    EXPECT_GT(reg.counterValue("ccnuma.msg.request"), 0u);
    EXPECT_GT(reg.counterValue("ccnuma.msg.data"), 0u);
    const obs::HistogramData *lat = reg.histogramData("mesh.latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, report.volume.messageCount);

    // Every router lane carries at least one span, and process
    // lifetime spans exist (acceptance criterion of the trace export).
    std::ostringstream os;
    tr.writeChromeJson(os);
    std::string json = os.str();
    ASSERT_TRUE(wellFormedJson(json)) << json.substr(0, 200);
    for (int r = 0; r < 16; ++r) {
        int laneId = tr.lane("router:" + std::to_string(r));
        EXPECT_GE(tr.laneRecordCount(laneId), 1u) << "router " << r;
    }
    EXPECT_GE(countOccurrences(json, "\"proc:"), 16u);
}

TEST(SystemObs, StaticStrategySamplerAndReplayLag)
{
    obs::MetricsRegistry reg;
    obs::ScopedObservability scoped{&reg};
    obs::WindowedSampler sampler;
    core::PipelineOptions opts;
    opts.sampler = &sampler;
    opts.samplePeriodUs = 25.0;
    core::CharacterizationPipeline pipeline{opts};

    apps::Fft3D app;
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 2;
    auto report = pipeline.runStatic(app, cfg);

    EXPECT_TRUE(report.verified);
    EXPECT_EQ(reg.counterValue("replay.messages"),
              report.volume.messageCount);
    EXPECT_GT(reg.counterValue("mp.sends"), 0u);
    EXPECT_EQ(reg.counterValue("mp.sends"),
              reg.counterValue("mp.recvs"));
    const obs::HistogramData *lag = reg.histogramData("replay.lag_us");
    ASSERT_NE(lag, nullptr);
    EXPECT_EQ(lag->count, report.volume.messageCount);

    ASSERT_GT(sampler.sampleCount(), 0u);
    EXPECT_EQ(sampler.seriesCount(), 7u);
    std::ostringstream os;
    core::writeMetricsJson(os, &reg, &sampler);
    EXPECT_TRUE(wellFormedJson(os.str()));
}

TEST(SystemObs, WriteMetricsJsonHandlesAbsentParts)
{
    std::ostringstream os;
    core::writeMetricsJson(os, nullptr, nullptr);
    EXPECT_EQ(os.str(),
              "{\"metrics\":null,\"telemetry\":null,\"flows\":null}\n");
    EXPECT_TRUE(wellFormedJson(
        "{\"metrics\":null,\"telemetry\":null,\"flows\":null}"));
}

// --------------------------------------------------------------------
// Flow tracker: id assignment, lifecycle accounting, sampling stride,
// bounded reservoir, JSON export.

TEST(Flow, TrackerLifecycleAndReservoir)
{
    obs::FlowTracker flows{2, 3};
    EXPECT_EQ(flows.stride(), 3u);
    for (int i = 0; i < 5; ++i) {
        auto id = flows.open(0, i, i + 1, 64, 10.0 * i);
        EXPECT_EQ(id, static_cast<std::uint64_t>(i + 1));
    }
    EXPECT_EQ(flows.opened(), 5u);
    // Stride 3 samples ids 1 and 4; 0 is the "no flow" sentinel.
    EXPECT_FALSE(flows.sampled(0));
    EXPECT_TRUE(flows.sampled(1));
    EXPECT_FALSE(flows.sampled(2));
    EXPECT_FALSE(flows.sampled(3));
    EXPECT_TRUE(flows.sampled(4));

    for (std::uint64_t id = 1; id <= 5; ++id) {
        flows.onInject(id, 10.0 * (id - 1) + 2.0);
        flows.onDeliver(id, 10.0 * (id - 1) + 9.0, 3, 1.5, 0.5);
    }
    EXPECT_EQ(flows.completed(), 5u);
    EXPECT_EQ(flows.droppedRecords(), 3u);
    ASSERT_EQ(flows.records().size(), 2u);

    const obs::FlowRecord &rec = flows.records().front();
    EXPECT_EQ(rec.id, 1u);
    EXPECT_EQ(rec.src, 0);
    EXPECT_EQ(rec.dst, 1);
    EXPECT_EQ(rec.bytes, 64);
    EXPECT_EQ(rec.hops, 3);
    EXPECT_DOUBLE_EQ(rec.softwareTime(), 2.0);
    EXPECT_DOUBLE_EQ(rec.networkLatency(), 7.0);
    EXPECT_DOUBLE_EQ(rec.queueWait, 1.5);
    EXPECT_DOUBLE_EQ(rec.stallWait, 0.5);
    EXPECT_DOUBLE_EQ(rec.transitTime(), 5.0);

    std::ostringstream os;
    flows.writeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(wellFormedJson(json)) << json;
    EXPECT_NE(json.find("\"opened\":5"), std::string::npos);
    EXPECT_NE(json.find("\"completed\":5"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":3"), std::string::npos);
    EXPECT_NE(json.find("\"stride\":3"), std::string::npos);
}

TEST(Flow, MeshOpensFlowsAndHistogramsDecomposeLatency)
{
    obs::MetricsRegistry reg;
    obs::FlowTracker flows;
    obs::ScopedObservability scoped{&reg, nullptr, &flows};
    apps::Fft1D app;
    core::CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine4x4());

    // Every network message opened exactly one flow and completed it.
    EXPECT_EQ(flows.opened(), report.volume.messageCount);
    EXPECT_EQ(flows.completed(), flows.opened());

    // Latency decomposition histograms observed every message, and
    // each component is bounded by the total latency.
    const obs::HistogramData *lat = reg.histogramData("mesh.latency_us");
    const obs::HistogramData *queue = reg.histogramData("mesh.queue_us");
    const obs::HistogramData *stall = reg.histogramData("mesh.stall_us");
    const obs::HistogramData *transit =
        reg.histogramData("mesh.transit_us");
    ASSERT_NE(lat, nullptr);
    ASSERT_NE(queue, nullptr);
    ASSERT_NE(stall, nullptr);
    ASSERT_NE(transit, nullptr);
    EXPECT_EQ(queue->count, lat->count);
    EXPECT_EQ(stall->count, lat->count);
    EXPECT_EQ(transit->count, lat->count);
    EXPECT_NEAR(queue->sum + stall->sum + transit->sum, lat->sum,
                1e-6 * std::max(1.0, lat->sum));

    // The per-record lifecycle agrees with its own decomposition.
    for (const obs::FlowRecord &rec : flows.records()) {
        EXPECT_GE(rec.tInject, rec.tGenerate);
        EXPECT_GT(rec.tDeliver, rec.tInject);
        EXPECT_GE(rec.transitTime(), 0.0);
    }
}

TEST(Flow, TracerEmitsChromeFlowEvents)
{
    obs::Tracer tr;
    int lane = tr.lane("router:0");
    int name = tr.name("msg");
    tr.span(lane, name, 1.0, 4.0, 0, 64);
    tr.flowStart(lane, name, 1.0, 7);
    tr.flowStep(lane, name, 2.0, 7);
    tr.flowEnd(lane, name, 4.5, 7);

    std::ostringstream os;
    tr.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(wellFormedJson(json)) << json;
    EXPECT_EQ(countOccurrences(json, "\"cat\":\"flow\""), 3u);
    EXPECT_NE(json.find("\"ph\":\"s\",\"id\":7"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\",\"id\":7"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":7"),
              std::string::npos);
}

TEST(Flow, SinkStatsSurfaceRingOverwritesAndFlowCounts)
{
    obs::MetricsRegistry reg;
    obs::Tracer tr{4};
    int lane = tr.lane("l");
    int name = tr.name("n");
    for (int i = 0; i < 10; ++i)
        tr.instant(lane, name, 1.0 * i);

    obs::FlowTracker flows;
    flows.open(0, 0, 1, 8, 0.0);

    obs::publishSinkStats(reg, &tr, &flows);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("obs.tracer.records"), 4.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("obs.tracer.dropped"), 6.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("obs.flows.opened"), 1.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("obs.flows.completed"), 0.0);
}

// --------------------------------------------------------------------
// Phase detection: the change-point detector and the PhaseAnalyzer.

TEST(Phases, StationarySignalStaysOnePhase)
{
    obs::PhaseDetector det{3};
    // 48 windows of steady load with small deterministic jitter — the
    // kind of fluctuation a Poisson arrival process shows per window.
    for (int i = 0; i < 48; ++i) {
        double jitter = 0.03 * static_cast<double>(i % 5 - 2);
        det.observe(i * 10.0, (i + 1) * 10.0,
                    {1.0 + jitter, 64.0, 0.9 + jitter / 10.0});
    }
    auto phases = det.finish();
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].beginSample, 0u);
    EXPECT_EQ(phases[0].endSample, 48u);
    EXPECT_DOUBLE_EQ(phases[0].tBegin, 0.0);
    EXPECT_DOUBLE_EQ(phases[0].tEnd, 480.0);
}

TEST(Phases, StepChangeCutsAtTheStep)
{
    obs::PhaseDetector det{1};
    for (int i = 0; i < 40; ++i) {
        double v = i < 20 ? 1.0 : 4.0;
        det.observe(i * 10.0, (i + 1) * 10.0, {v});
    }
    auto phases = det.finish();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].beginSample, 0u);
    EXPECT_EQ(phases[0].endSample, 20u);
    EXPECT_EQ(phases[1].beginSample, 20u);
    EXPECT_EQ(phases[1].endSample, 40u);
    EXPECT_DOUBLE_EQ(phases[1].tBegin, 200.0);
}

TEST(Phases, AnalyzerFindsOnePhaseOnStationaryUniformLoad)
{
    // Synthetic stationary load: fixed inter-arrival time, fixed
    // length, destinations cycling uniformly over all nodes.
    trace::TrafficLog log{16};
    for (int i = 0; i < 2048; ++i) {
        trace::MessageRecord rec;
        rec.src = i % 16;
        rec.dst = (i * 7 + 3) % 16;
        rec.bytes = 64;
        rec.injectTime = 0.5 * i;
        rec.deliverTime = rec.injectTime + 2.0;
        rec.hops = 2;
        log.add(rec);
    }
    core::PhaseAnalyzer analyzer;
    auto phases = analyzer.detect(log);
    ASSERT_EQ(phases.size(), 1u);

    auto chars = analyzer.analyze(log);
    ASSERT_EQ(chars.size(), 1u);
    EXPECT_EQ(chars[0].messageCount, log.size());
    EXPECT_DOUBLE_EQ(chars[0].meanBytes, 64.0);
    EXPECT_GT(chars[0].dstEntropy, 0.9); // near-uniform destinations
}

TEST(Phases, AnalyzerSplitsTwoRegimeLoad)
{
    // Phase A: sparse large messages to one hot node. Phase B: dense
    // small messages spread over the mesh. Every signal shifts.
    trace::TrafficLog log{16};
    double t = 0.0;
    for (int i = 0; i < 512; ++i) {
        trace::MessageRecord rec;
        rec.src = i % 16;
        rec.dst = 5;
        rec.bytes = 1024;
        rec.injectTime = t;
        rec.deliverTime = t + 4.0;
        t += 4.0;
        log.add(rec);
    }
    for (int i = 0; i < 2048; ++i) {
        trace::MessageRecord rec;
        rec.src = i % 16;
        rec.dst = (i * 5 + 1) % 16;
        rec.bytes = 32;
        rec.injectTime = t;
        rec.deliverTime = t + 1.0;
        t += 0.25;
        log.add(rec);
    }
    core::PhaseAnalyzer analyzer;
    auto chars = analyzer.analyze(log);
    ASSERT_GE(chars.size(), 2u);
    // Ordered, non-overlapping, covering all messages.
    std::size_t total = 0;
    for (std::size_t p = 0; p < chars.size(); ++p) {
        total += chars[p].messageCount;
        if (p > 0) {
            EXPECT_GE(chars[p].tBegin, chars[p - 1].tEnd - 1e-9);
        }
    }
    EXPECT_EQ(total, log.size());
    EXPECT_GT(chars.back().injectionRate, chars.front().injectionRate);
    EXPECT_LT(chars.back().meanBytes, chars.front().meanBytes);
}

TEST(Phases, SystemRunDetectsPhasedApplication)
{
    core::PipelineOptions opts;
    opts.detectPhases = true;
    core::CharacterizationPipeline pipeline{opts};
    apps::Fft3D app;
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 4;
    auto report = pipeline.runStatic(app, cfg);
    EXPECT_GE(report.phases.size(), 2u)
        << "3-D FFT alternates transpose and exchange phases";
    std::size_t total = 0;
    for (const auto &ph : report.phases)
        total += ph.messageCount;
    EXPECT_EQ(total, report.volume.messageCount);
}

// --------------------------------------------------------------------
// Windowed profiles agree with whole-run statistics.

TEST(Windows, BandwidthProfileConservesBytes)
{
    trace::TrafficLog log{4};
    double totalBytes = 0.0;
    for (int i = 0; i < 300; ++i) {
        trace::MessageRecord rec;
        rec.src = i % 4;
        rec.dst = (i + 1) % 4;
        rec.bytes = 16 + (i % 7) * 32;
        rec.injectTime = 0.7 * i;
        rec.deliverTime = rec.injectTime + 1.0;
        log.add(rec);
        totalBytes += rec.bytes;
    }
    for (int windows : {1, 8, 32}) {
        auto prof = core::BandwidthAnalyzer::profile(log, windows);
        ASSERT_EQ(prof.size(), static_cast<std::size_t>(windows));
        double width = log.lastDeliverTime() / windows;
        double sum = 0.0;
        for (double v : prof)
            sum += v * width;
        EXPECT_NEAR(sum, totalBytes, 1e-6 * totalBytes)
            << windows << " windows";
    }
}

TEST(Windows, WindowFitsPartitionTheGaps)
{
    trace::TrafficLog log{2};
    for (int i = 0; i < 256; ++i) {
        trace::MessageRecord rec;
        rec.src = 0;
        rec.dst = 1;
        rec.bytes = 64;
        rec.injectTime = 1.0 * i;
        rec.deliverTime = rec.injectTime + 0.5;
        log.add(rec);
    }
    core::TemporalAnalyzer analyzer;
    auto whole = analyzer.analyzeAggregate(log);
    auto fits = analyzer.analyzeWindows(log, 8);
    ASSERT_EQ(fits.size(), 8u);
    // Windowed gap counts sum to (at most) the whole-run gap count;
    // boundary-straddling gaps are the only losses.
    std::size_t windowed = 0;
    for (const auto &fit : fits)
        windowed += fit.stats.count;
    EXPECT_LE(windowed, whole.stats.count);
    EXPECT_GE(windowed + 8, whole.stats.count);
    // A constant-rate log fits the same mean in every window.
    for (const auto &fit : fits)
        EXPECT_NEAR(fit.stats.mean, whole.stats.mean, 1e-9);
}

// --------------------------------------------------------------------
// HTML run report: structure, embedded JSON, byte determinism.

TEST(HtmlReport, EmbedsWellFormedJsonAndIsDeterministic)
{
    auto render = [] {
        obs::MetricsRegistry reg;
        obs::FlowTracker flows;
        obs::ScopedObservability scoped{&reg, nullptr, &flows};
        obs::WindowedSampler sampler;
        core::PipelineOptions opts;
        opts.detectPhases = true;
        opts.sampler = &sampler;
        opts.samplePeriodUs = 25.0;
        core::CharacterizationPipeline pipeline{opts};
        apps::Fft1D app;
        auto report = pipeline.runDynamic(app, machine4x4());
        obs::publishSinkStats(reg, nullptr, &flows);
        std::ostringstream os;
        core::writeHtmlReport(
            os, {&report, &reg, &sampler, &flows});
        return os.str();
    };

    std::string html = render();
    EXPECT_EQ(html, render()) << "HTML report must be byte-deterministic";

    // Self-contained: no external fetches of any kind.
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<link"), std::string::npos);

    // The wall-clock throughput gauge must not leak into the report.
    EXPECT_EQ(html.find("events_per_sec"), std::string::npos);

    // Extract and validate the embedded machine-readable payload.
    const std::string open =
        "<script type=\"application/json\" id=\"cchar-report-data\">";
    auto begin = html.find(open);
    ASSERT_NE(begin, std::string::npos);
    begin += open.size();
    auto end = html.find("</script>", begin);
    ASSERT_NE(end, std::string::npos);
    std::string payload = html.substr(begin, end - begin);
    EXPECT_TRUE(wellFormedJson(payload)) << payload.substr(0, 200);
    EXPECT_NE(payload.find("\"report\":"), std::string::npos);
    EXPECT_NE(payload.find("\"metrics\":"), std::string::npos);
    EXPECT_NE(payload.find("\"telemetry\":"), std::string::npos);
    EXPECT_NE(payload.find("\"flows\":"), std::string::npos);
}

TEST(HtmlReport, RendersWithReportAloneAndRejectsNull)
{
    core::CharacterizationReport report;
    report.application = "unit";
    std::ostringstream os;
    core::writeHtmlReport(os, {&report, nullptr, nullptr, nullptr});
    EXPECT_NE(os.str().find("</html>"), std::string::npos);

    std::ostringstream os2;
    EXPECT_THROW(core::writeHtmlReport(os2, {}), std::invalid_argument);
}

} // namespace
