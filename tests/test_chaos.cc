/**
 * @file
 * Chaos harness tests: generator determinism and round-trip, outcome
 * classification, campaign worker-count invariance, and plan shrinking
 * (see src/sweep/chaos.hh and DESIGN §6g).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/status.hh"
#include "fault/plan.hh"
#include "sweep/chaos.hh"

namespace {

using namespace cchar;
using sweep::ChaosHarness;
using sweep::ChaosOptions;
using sweep::ChaosPlan;
using sweep::ChaosResult;

/** Small fast campaign: one mp app, a handful of 2x2 plans. */
ChaosOptions
smallCampaign()
{
    ChaosOptions opts;
    opts.seed = 7;
    opts.plans = 6;
    opts.apps = {"3d-fft"};
    opts.procs = 4;
    opts.maxFaults = 3;
    return opts;
}

TEST(ChaosGenerator, SameSeedSamePlans)
{
    ChaosOptions opts = smallCampaign();
    auto a = ChaosHarness{opts}.generatePlans();
    auto b = ChaosHarness{opts}.generatePlans();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].render(), b[i].render());
}

TEST(ChaosGenerator, DifferentSeedsDiffer)
{
    ChaosOptions opts = smallCampaign();
    auto a = ChaosHarness{opts}.generatePlans();
    opts.seed = 8;
    auto b = ChaosHarness{opts}.generatePlans();
    bool anyDiffer = a.size() != b.size();
    for (std::size_t i = 0; !anyDiffer && i < a.size(); ++i)
        anyDiffer = a[i].render() != b[i].render();
    EXPECT_TRUE(anyDiffer);
}

TEST(ChaosGenerator, RenderedPlansRoundTripThroughGrammar)
{
    auto plans = ChaosHarness{smallCampaign()}.generatePlans();
    ASSERT_FALSE(plans.empty());
    for (const ChaosPlan &p : plans) {
        fault::FaultPlan parsed = fault::FaultPlan::parse(p.render());
        EXPECT_EQ(parsed.seed(), p.planSeed);
        EXPECT_EQ(parsed.retry().window, p.retry.window);
        EXPECT_EQ(parsed.retry().maxAttempts, p.retry.maxAttempts);
        ASSERT_EQ(parsed.faults().size(), p.faults.size());
        // describe() must be stable under one parse round trip, or
        // shrunk plans would not replay verbatim.
        for (std::size_t i = 0; i < p.faults.size(); ++i)
            EXPECT_EQ(parsed.faults()[i].describe(),
                      p.faults[i].describe());
    }
}

TEST(ChaosGenerator, RejectsSharedMemoryAppAboveCcNumaLimit)
{
    ChaosOptions opts = smallCampaign();
    opts.apps = {"is"};
    opts.procs = 256;
    EXPECT_THROW(ChaosHarness{opts}.generatePlans(), core::CCharError);
    opts.apps = {"3d-fft"};
    EXPECT_EQ(ChaosHarness{opts}.generatePlans().size(), 6u);
}

TEST(ChaosClassify, MapsStatusAndFailures)
{
    using sweep::classifyChaosOutcome;
    EXPECT_EQ(classifyChaosOutcome("ok", 0), "recovered");
    EXPECT_EQ(classifyChaosOutcome("ok", 3), "delivery-failure");
    EXPECT_EQ(classifyChaosOutcome("watchdog-trip", 0), "watchdog");
    EXPECT_EQ(classifyChaosOutcome("deadline-exceeded", 0), "deadline");
    EXPECT_EQ(classifyChaosOutcome("sim-error", 1), "deadlock");
    EXPECT_EQ(classifyChaosOutcome("usage-error", 0), "usage-error");
}

TEST(ChaosCampaign, ByteIdenticalAcrossWorkerCounts)
{
    ChaosOptions opts = smallCampaign();
    ChaosResult serial = ChaosHarness{opts}.run(1);
    ChaosResult parallel = ChaosHarness{opts}.run(4);
    std::ostringstream a, b;
    serial.writeJson(a);
    parallel.writeJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ChaosCampaign, ShrinksFailingPlans)
{
    ChaosOptions opts = smallCampaign();
    ChaosResult result = ChaosHarness{opts}.run(2);
    ASSERT_GE(result.failingCount(), 1u)
        << "seed 7 must seed at least one failing plan";
    for (const auto &j : result.jobs) {
        if (!j.failing())
            continue;
        EXPECT_FALSE(j.shrunkPlan.empty());
        EXPECT_GE(j.shrunkFaults, 1u);
        EXPECT_LE(j.shrunkFaults, 2u)
            << "greedy removal should reach <= 2 clauses for " << j.plan;
        // The shrunk plan still parses (replayable with --fault-plan).
        EXPECT_NO_THROW(fault::FaultPlan::parse(j.shrunkPlan));
        // Shrinking never grows the plan.
        EXPECT_LE(j.shrunkFaults,
                  fault::FaultPlan::parse(j.plan).faults().size());
    }
    // Recovered jobs carry no shrink output.
    for (const auto &j : result.jobs) {
        if (!j.failing()) {
            EXPECT_TRUE(j.shrunkPlan.empty());
        }
    }
}

} // namespace
