/**
 * @file
 * Tests for the deterministic parallel sweep engine: spec expansion
 * (canonical order, range parsing, validation), mesh factorization,
 * the JSON spec form, per-worker metric merging, and the central
 * guarantee — the merged report is byte-identical for any worker
 * count, including matrices whose jobs fail.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/status.hh"
#include "obs/registry.hh"
#include "sweep/engine.hh"
#include "sweep/spec.hh"

namespace {

using namespace cchar;
using sweep::SweepEngine;
using sweep::SweepJob;
using sweep::SweepResult;
using sweep::SweepSpec;

// --------------------------------------------------------------------
// Spec parsing and expansion

TEST(SweepSpec, MeshFactorIsNearSquare)
{
    int w = 0, h = 0;
    sweep::meshFactor(16, w, h);
    EXPECT_EQ(w, 4);
    EXPECT_EQ(h, 4);
    sweep::meshFactor(8, w, h);
    EXPECT_EQ(w, 4);
    EXPECT_EQ(h, 2);
    sweep::meshFactor(7, w, h); // prime: degenerates to a chain
    EXPECT_EQ(w, 7);
    EXPECT_EQ(h, 1);
    sweep::meshFactor(1, w, h);
    EXPECT_EQ(w, 1);
    EXPECT_EQ(h, 1);
    EXPECT_THROW(sweep::meshFactor(0, w, h), core::CCharError);
}

TEST(SweepSpec, ParseSeedsSupportsRanges)
{
    auto seeds = sweep::parseSeeds("1,4..6,10");
    ASSERT_EQ(seeds.size(), 5u);
    EXPECT_EQ(seeds[0], 1u);
    EXPECT_EQ(seeds[1], 4u);
    EXPECT_EQ(seeds[2], 5u);
    EXPECT_EQ(seeds[3], 6u);
    EXPECT_EQ(seeds[4], 10u);
    EXPECT_THROW(sweep::parseSeeds("5..1"), core::CCharError);
    EXPECT_THROW(sweep::parseSeeds("x"), core::CCharError);
}

TEST(SweepSpec, ExpansionOrderIsCanonical)
{
    SweepSpec spec;
    spec.apps = {"is", "sor"};
    spec.procs = {4, 16};
    spec.loads = {1.0, 2.0};
    spec.seeds = {0, 7};
    spec.faultPlans = {"", "drop:p=0.5"};

    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 32u); // 2*2*2*2*2

    // apps outermost ... fault plans innermost; index == position.
    EXPECT_EQ(jobs[0].app, "is");
    EXPECT_EQ(jobs[0].procs, 4);
    EXPECT_EQ(jobs[0].load, 1.0);
    EXPECT_EQ(jobs[0].seed, 0u);
    EXPECT_EQ(jobs[0].faultPlan, "");
    EXPECT_EQ(jobs[1].faultPlan, "drop:p=0.5");
    EXPECT_EQ(jobs[2].seed, 7u);
    EXPECT_EQ(jobs[4].load, 2.0);
    EXPECT_EQ(jobs[8].procs, 16);
    EXPECT_EQ(jobs[16].app, "sor");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(SweepSpec, ExpansionValidates)
{
    SweepSpec spec;
    spec.apps = {"no-such-app"};
    spec.procs = {4};
    EXPECT_THROW(spec.expand(), core::CCharError);

    spec.apps = {"is"};
    spec.procs = {0};
    EXPECT_THROW(spec.expand(), core::CCharError);

    spec.procs = {4};
    spec.loads = {-1.0};
    EXPECT_THROW(spec.expand(), core::CCharError);

    spec.loads = {1.0};
    spec.faultPlans = {"garbage:xyz"};
    EXPECT_THROW(spec.expand(), core::CCharError);
}

TEST(SweepSpec, SharedMemoryJobAboveCcNumaLimitIsUsageError)
{
    // A registered factory counts as shared memory; expand() must not
    // construct the app to find out.
    apps::registerSharedMemoryApp(
        "test-sm-limit", []() -> std::unique_ptr<apps::SharedMemoryApp> {
            ADD_FAILURE() << "expand() constructed the app";
            return nullptr;
        });
    SweepSpec spec;
    spec.procs = {4, 128};
    for (const std::string app : {"is", "test-sm-limit"}) {
        spec.apps = {app};
        try {
            spec.expand();
            ADD_FAILURE() << app << " expanded at 128 procs";
        } catch (const core::CCharError &err) {
            EXPECT_EQ(err.status().code(), core::StatusCode::UsageError);
            const std::string what = err.what();
            EXPECT_NE(what.find("'" + app + "'"), std::string::npos) << what;
            EXPECT_NE(what.find("128"), std::string::npos) << what;
        }
    }
    spec.apps = {"mg"};
    EXPECT_EQ(spec.expand().size(), 2u);
}

TEST(SweepSpec, JsonFormRoundTrips)
{
    const std::string text = R"({"apps": ["is", "sor"],
        "procs": [4, 16], "loads": [1.0, 2.0], "seeds": [1, 2],
        "fault_plans": ["none", "drop:p=0.001"],
        "torus": false, "vcs": 1})";
    SweepSpec spec = SweepSpec::fromJson(text);
    EXPECT_EQ(spec.apps, (std::vector<std::string>{"is", "sor"}));
    EXPECT_EQ(spec.procs, (std::vector<int>{4, 16}));
    EXPECT_EQ(spec.loads, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_FALSE(spec.torus);
    EXPECT_EQ(spec.vcs, 1);
    auto jobs = spec.expand();
    EXPECT_EQ(jobs.size(), 32u);
    EXPECT_EQ(jobs[0].faultPlan, ""); // "none" normalizes to healthy

    EXPECT_THROW(SweepSpec::fromJson("{\"bogus\": 1}"),
                 core::CCharError);
    EXPECT_THROW(SweepSpec::fromJson("not json"), core::CCharError);
}

// --------------------------------------------------------------------
// Metrics merging

TEST(SweepMerge, MergeFromFoldsCountersGaugesHistograms)
{
    obs::MetricsRegistry a, b;
    a.counter("c").add(3);
    b.counter("c").add(4);
    b.counter("only_b").add(1);
    a.gauge("g").high(2.0);
    b.gauge("g").high(5.0);
    a.histogram("h").record(1.0);
    b.histogram("h").record(100.0);
    b.histogram("h").record(2.0);

    a.mergeFrom(b);
    EXPECT_EQ(a.counterValue("c"), 7u);
    EXPECT_EQ(a.counterValue("only_b"), 1u);
    EXPECT_DOUBLE_EQ(a.gaugeValue("g"), 5.0);

    std::ostringstream os;
    a.writeJson(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("\"h\""), std::string::npos);
}

// --------------------------------------------------------------------
// Engine determinism

std::string
runMatrix(int workers)
{
    SweepSpec spec;
    spec.apps = {"is", "3d-fft"};
    spec.procs = {4};
    spec.loads = {1.0, 2.0};
    spec.seeds = {0};
    spec.faultPlans = {"", "drop:p=0.001"};

    SweepEngine engine{spec};
    SweepResult result = engine.run({.workers = workers});
    std::ostringstream json, csv;
    result.writeJson(json);
    result.writeCsv(csv);
    return json.str() + "\n--csv--\n" + csv.str();
}

TEST(SweepEngine, WorkerCountNeverChangesOutput)
{
    const std::string serial = runMatrix(1);
    EXPECT_EQ(runMatrix(4), serial);
    // Oversubscribed: more workers than jobs must also be identical.
    EXPECT_EQ(runMatrix(16), serial);
}

TEST(SweepEngine, OutcomesCarryJobAttribution)
{
    SweepSpec spec;
    spec.apps = {"is"};
    spec.procs = {4};
    SweepEngine engine{spec};
    SweepResult result = engine.run({.workers = 2});
    ASSERT_EQ(result.outcomes.size(), 1u);
    const auto &o = result.outcomes[0];
    EXPECT_EQ(o.job.app, "is");
    EXPECT_EQ(o.status, "ok");
    EXPECT_TRUE(o.verified);
    EXPECT_GT(o.messages, 0u);
    EXPECT_GT(o.makespan, 0.0);
    EXPECT_EQ(result.failures(), 0u);
}

TEST(SweepEngine, FailedJobsAreRecordedNotThrown)
{
    SweepSpec spec;
    spec.apps = {"is"};
    spec.procs = {4};
    spec.seeds = {7};
    spec.faultPlans = {"drop:p=0.001"};
    SweepEngine engine{spec};
    SweepResult result = engine.run({.workers = 1});
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_NE(result.outcomes[0].status, "ok");
    EXPECT_FALSE(result.outcomes[0].error.empty());
    EXPECT_EQ(result.failures(), 1u);
}

} // namespace
