/**
 * @file
 * Unit tests for the fault-injection subsystem: plan parsing, the
 * deterministic injector, faulted mesh behaviour, the mp
 * retransmission protocol, replay-level retries, and the desim
 * no-progress watchdog.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/replay.hh"
#include "core/status.hh"
#include "desim/watchdog.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "mesh/mesh.hh"
#include "mp/mp.hh"
#include "stats/stats.hh"
#include "trace/trace.hh"

namespace {

using namespace cchar;
using namespace cchar::fault;
using desim::Simulator;
using desim::Task;
using trace::MessageKind;
using trace::MessageRecord;

// --------------------------------------------------------------------
// Plan parsing

TEST(FaultPlan, ParsesLinkDownClause)
{
    FaultPlan plan = FaultPlan::parse("link:3->4:down@[10ms,25ms]");
    ASSERT_EQ(plan.faults().size(), 1u);
    const FaultSpec &f = plan.faults()[0];
    EXPECT_EQ(f.kind, FaultKind::LinkDown);
    EXPECT_EQ(f.node, 3);
    EXPECT_EQ(f.peer, 4);
    EXPECT_DOUBLE_EQ(f.window.begin, 10000.0);
    EXPECT_DOUBLE_EQ(f.window.end, 25000.0);
    EXPECT_DOUBLE_EQ(plan.plannedLinkDowntimeUs(), 15000.0);
}

TEST(FaultPlan, ParsesDropCorruptAndStall)
{
    FaultPlan plan =
        FaultPlan::parse("drop:p=0.001; corrupt:p=0.01@[0,1s]\n"
                         "router:7:stall=5us");
    ASSERT_EQ(plan.faults().size(), 3u);
    EXPECT_EQ(plan.faults()[0].kind, FaultKind::Drop);
    EXPECT_DOUBLE_EQ(plan.faults()[0].probability, 0.001);
    EXPECT_FALSE(plan.faults()[0].window.bounded());
    EXPECT_EQ(plan.faults()[1].kind, FaultKind::Corrupt);
    EXPECT_DOUBLE_EQ(plan.faults()[1].window.end, 1e6);
    EXPECT_EQ(plan.faults()[2].kind, FaultKind::RouterStall);
    EXPECT_EQ(plan.faults()[2].node, 7);
    EXPECT_DOUBLE_EQ(plan.faults()[2].stallUs, 5.0);
}

TEST(FaultPlan, ParsesSeedRetryAndComments)
{
    FaultPlan plan = FaultPlan::parse(
        "# a comment\nseed=42; retry:timeout=250,max=0,backoff=3\n"
        "drop:p=0.5");
    EXPECT_EQ(plan.seed(), 42u);
    EXPECT_DOUBLE_EQ(plan.retry().ackTimeoutUs, 250.0);
    EXPECT_TRUE(plan.retry().unbounded());
    EXPECT_DOUBLE_EQ(plan.retry().backoffFactor, 3.0);
    ASSERT_EQ(plan.faults().size(), 1u);
}

TEST(FaultPlan, ParsesJsonForm)
{
    FaultPlan plan = FaultPlan::parse(
        R"({"seed": 7,
            "retry": {"timeout_us": 100, "max_attempts": 2,
                      "backoff": 1.5},
            "faults": ["link:0->1:down@[0,1ms]", "drop:p=0.25"]})");
    EXPECT_EQ(plan.seed(), 7u);
    EXPECT_EQ(plan.retry().maxAttempts, 2);
    ASSERT_EQ(plan.faults().size(), 2u);
    EXPECT_EQ(plan.faults()[0].kind, FaultKind::LinkDown);
    EXPECT_EQ(plan.faults()[1].kind, FaultKind::Drop);

    // Integer fields parse exactly and reject anything else.
    EXPECT_EQ(FaultPlan::parse(R"({"seed": 18446744073709551615})").seed(),
              18446744073709551615u);
    for (const char *bad :
         {R"({"seed": -1})", R"({"seed": 1.5})", R"({"seed": 1e3})",
          R"({"seed": 18446744073709551616})",
          R"({"retry": {"max_attempts": 2.5}})",
          R"({"retry": {"max_attempts": -1}})",
          R"({"retry": {"window": 0}})",
          R"({"retry": {"window": 4294967297}})",
          // The text grammar's retry range checks hold here too.
          R"({"retry": {"timeout_us": -5, "backoff": 0.1},
              "faults": ["drop:p=0.01"]})",
          R"({"retry": {"timeout_us": -5}})",
          R"({"retry": {"backoff": 0.1}})"}) {
        try {
            FaultPlan::parse(bad);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const core::CCharError &e) {
            EXPECT_EQ(e.status().code(), core::StatusCode::ParseError)
                << bad;
        }
    }
}

TEST(FaultPlan, DescribeRoundTrips)
{
    FaultPlan plan =
        FaultPlan::parse("link:0->1:down@[5,10]; drop:p=0.125");
    for (const FaultSpec &f : plan.faults()) {
        FaultPlan again = FaultPlan::parse(f.describe());
        ASSERT_EQ(again.faults().size(), 1u);
        EXPECT_EQ(again.faults()[0].kind, f.kind);
    }
}

TEST(FaultPlan, RejectsMalformedClauses)
{
    EXPECT_THROW(FaultPlan::parse("garbage:xyz"), core::CCharError);
    EXPECT_THROW(FaultPlan::parse("link:0-1:down"), core::CCharError);
    EXPECT_THROW(FaultPlan::parse("drop:p=nope"), core::CCharError);
    EXPECT_THROW(FaultPlan::parse("drop:p=1.5"), core::CCharError);
    EXPECT_THROW(FaultPlan::parse("router:1:stall=-3"),
                 core::CCharError);
    EXPECT_THROW(FaultPlan::parse("drop:p=0.1@[10,5]"),
                 core::CCharError);
    // Counts past INT_MAX are rejected, never narrowed (2^32 + 1 would
    // otherwise wrap to 1).
    for (const char *bad :
         {"retry:window=4294967297", "retry:max=4294967296",
          "link:4294967297->1:down", "link:4294967296->1:down"}) {
        try {
            FaultPlan::parse(bad);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const core::CCharError &e) {
            EXPECT_EQ(e.status().code(), core::StatusCode::ParseError)
                << bad;
        }
    }
    try {
        FaultPlan::parse("bogus:clause");
        FAIL() << "expected CCharError";
    } catch (const core::CCharError &e) {
        EXPECT_EQ(e.status().code(), core::StatusCode::ParseError);
    }
}

// --------------------------------------------------------------------
// Randomized grammar round-trip property
//
// Plans are generated with values the default stream formatting
// renders exactly (small decimals, integral microseconds), so
// parse -> describe -> parse must reproduce the plan field-for-field,
// not merely kind-for-kind.

FaultSpec
randomSpec(stats::Rng &rng)
{
    FaultSpec s;
    switch (rng.below(4)) {
    case 0:
        s.kind = FaultKind::LinkDown;
        s.node = static_cast<int>(rng.below(64));
        s.peer = static_cast<int>(rng.below(63));
        if (s.peer >= s.node) // grammar rejects self-links
            ++s.peer;
        break;
    case 1:
        s.kind = FaultKind::Drop;
        s.probability =
            static_cast<double>(1 + rng.below(999)) / 1000.0;
        break;
    case 2:
        s.kind = FaultKind::Corrupt;
        s.probability =
            static_cast<double>(1 + rng.below(999)) / 1000.0;
        break;
    default:
        s.kind = FaultKind::RouterStall;
        s.node = static_cast<int>(rng.below(64));
        s.stallUs = static_cast<double>(1 + rng.below(500)) / 4.0;
        break;
    }
    switch (rng.below(3)) {
    case 0: // whole-run window (default)
        break;
    case 1: { // bounded window
        double b = static_cast<double>(rng.below(1000));
        s.window.begin = b;
        s.window.end = b + 1.0 + static_cast<double>(rng.below(5000));
        break;
    }
    default: // open-ended window starting late
        s.window.begin = 1.0 + static_cast<double>(rng.below(1000));
        break;
    }
    return s;
}

std::string
formatPlan(const FaultPlan &plan)
{
    std::ostringstream os;
    os << "seed=" << plan.seed() << "; retry:timeout="
       << plan.retry().ackTimeoutUs << "us,max="
       << plan.retry().maxAttempts << ",backoff="
       << plan.retry().backoffFactor;
    for (const FaultSpec &f : plan.faults())
        os << "; " << f.describe();
    return os.str();
}

TEST(FaultPlanProperty, ParseFormatParseIsIdentity)
{
    stats::Rng rng{0xf417};
    for (int round = 0; round < 200; ++round) {
        FaultPlan plan;
        plan.setSeed(rng.below(1u << 30));
        RetryConfig retry;
        retry.ackTimeoutUs = static_cast<double>(1 + rng.below(5000));
        retry.maxAttempts = static_cast<int>(rng.below(10));
        retry.backoffFactor =
            1.0 + static_cast<double>(rng.below(12)) / 4.0;
        plan.setRetry(retry);
        int nfaults = 1 + static_cast<int>(rng.below(5));
        for (int i = 0; i < nfaults; ++i)
            plan.add(randomSpec(rng));

        std::string text = formatPlan(plan);
        FaultPlan again = FaultPlan::parse(text);
        // The formatted form must itself be a fixpoint.
        EXPECT_EQ(formatPlan(again), text) << "round " << round;

        EXPECT_EQ(again.seed(), plan.seed());
        EXPECT_EQ(again.retry().ackTimeoutUs, retry.ackTimeoutUs);
        EXPECT_EQ(again.retry().maxAttempts, retry.maxAttempts);
        EXPECT_EQ(again.retry().backoffFactor, retry.backoffFactor);
        ASSERT_EQ(again.faults().size(), plan.faults().size());
        for (std::size_t i = 0; i < plan.faults().size(); ++i) {
            const FaultSpec &a = plan.faults()[i];
            const FaultSpec &b = again.faults()[i];
            EXPECT_EQ(b.kind, a.kind) << "round " << round;
            EXPECT_EQ(b.node, a.node);
            EXPECT_EQ(b.peer, a.peer);
            EXPECT_EQ(b.probability, a.probability);
            EXPECT_EQ(b.stallUs, a.stallUs);
            EXPECT_EQ(b.window.begin, a.window.begin);
            EXPECT_EQ(b.window.end, a.window.end);
        }
    }
}

/** Splice random damage into a valid clause. */
std::string
mangleClause(stats::Rng &rng, const std::string &clause)
{
    switch (rng.below(5)) {
    case 0: // chop the tail
        return clause.substr(0, 1 + rng.below(clause.size() - 1));
    case 1: // flip a character to line noise
    {
        std::string out = clause;
        out[rng.below(out.size())] = '~';
        return out;
    }
    case 2: // duplicate the probability sign-post
        return clause + "=0.5";
    case 3: // out-of-range probability
        return "drop:p=" + std::to_string(2 + rng.below(9)) + ".5";
    default: // inverted window
        return clause + "@[100,5]";
    }
}

TEST(FaultPlanProperty, MalformedSpecsFailWithStatusNeverAbort)
{
    stats::Rng rng{0xbad5eed};
    int rejected = 0;
    for (int round = 0; round < 300; ++round) {
        FaultSpec seedSpec = randomSpec(rng);
        std::string text = mangleClause(rng, seedSpec.describe());
        try {
            FaultPlan plan = FaultPlan::parse(text);
            // Some mangled clauses stay well-formed (a '~' inside a
            // comment-free numeric field usually does not) — parsing
            // successfully is acceptable; crashing is not.
            (void)plan;
        } catch (const core::CCharError &err) {
            ++rejected;
            // Always a classified status that maps to a CLI exit
            // code, never a bare exception or an abort.
            EXPECT_EQ(err.status().code(), core::StatusCode::ParseError);
            EXPECT_EQ(core::exitCodeOf(err.status().code()), 3);
        }
    }
    // The mangler must actually exercise the error paths.
    EXPECT_GT(rejected, 150);
}

// --------------------------------------------------------------------
// Injector determinism

TEST(FaultInjector, SameSeedSameDrawSequence)
{
    FaultPlan plan = FaultPlan::parse("seed=99; drop:p=0.3");
    FaultInjector a{plan};
    FaultInjector b{plan};
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.drawDrop(double(i)), b.drawDrop(double(i)));
}

TEST(FaultInjector, DifferentSeedDifferentSequence)
{
    FaultPlan p1 = FaultPlan::parse("seed=1; drop:p=0.5");
    FaultPlan p2 = FaultPlan::parse("seed=2; drop:p=0.5");
    FaultInjector a{p1};
    FaultInjector b{p2};
    int diff = 0;
    for (int i = 0; i < 256; ++i)
        diff += a.drawDrop(double(i)) != b.drawDrop(double(i));
    EXPECT_GT(diff, 0);
}

TEST(FaultInjector, WindowGatesDecisions)
{
    FaultPlan plan = FaultPlan::parse("link:0->1:down@[10,20]");
    FaultInjector inj{plan};
    EXPECT_FALSE(inj.linkDown(0, 1, 5.0));
    EXPECT_TRUE(inj.linkDown(0, 1, 10.0));
    EXPECT_TRUE(inj.linkDown(0, 1, 19.9));
    EXPECT_FALSE(inj.linkDown(0, 1, 20.0));
    EXPECT_FALSE(inj.linkDown(1, 0, 15.0)); // directed: reverse is up
}

TEST(FaultInjector, RouterStallAccumulates)
{
    FaultPlan plan =
        FaultPlan::parse("router:3:stall=2; router:3:stall=5");
    FaultInjector inj{plan};
    EXPECT_DOUBLE_EQ(inj.routerStallUs(3, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(inj.routerStallUs(4, 0.0), 0.0);
}

// --------------------------------------------------------------------
// Faulted mesh behaviour

mesh::MeshConfig
meshCfg(FaultInjector *inj)
{
    mesh::MeshConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.faults = inj;
    return cfg;
}

mesh::Packet
pkt(int src, int dst, int bytes)
{
    mesh::Packet p;
    p.src = src;
    p.dst = dst;
    p.bytes = bytes;
    p.kind = MessageKind::Data;
    return p;
}

TEST(FaultedMesh, DownLinkTailDropsWorm)
{
    FaultPlan plan = FaultPlan::parse("link:0->1:down");
    FaultInjector inj{plan};
    Simulator sim;
    trace::TrafficLog log;
    auto cfg = meshCfg(&inj);
    cfg.adaptiveRouting = false; // force the worm onto the dead link
    mesh::MeshNetwork net{sim, cfg, &log};
    MessageRecord out;
    sim.spawn([](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
        o = co_await n.transfer(pkt(0, 3, 16));
    }(net, out));
    sim.run();
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(inj.linkDrops(), 1u);
    EXPECT_EQ(log.size(), 0u); // lost worms are not logged
}

TEST(FaultedMesh, DownLinkReroutesWhenAdaptive)
{
    // Same dead link, adaptive routing left on (the default): the
    // worm detours via a west-first-legal path and still arrives.
    FaultPlan plan = FaultPlan::parse("link:0->1:down");
    FaultInjector inj{plan};
    Simulator sim;
    mesh::MeshNetwork net{sim, meshCfg(&inj)};
    MessageRecord out;
    sim.spawn([](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
        o = co_await n.transfer(pkt(0, 3, 16));
    }(net, out));
    sim.run();
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(inj.linkDrops(), 0u);
    EXPECT_EQ(inj.reroutes(), 1u);
    EXPECT_GE(inj.rerouteExtraHops(), 2u); // 0->3 detour costs >= 2
    EXPECT_EQ(net.reroutedPackets(), 1u);
}

TEST(FaultedMesh, RerouteKeepsMinimalHopsWhenPossible)
{
    // 0->3 is blocked at its first East hop, but a same-length XY
    // alternative does not exist under west-first on the bottom row,
    // so the detour goes up and over: extra hops are even and > 0.
    FaultPlan plan = FaultPlan::parse("link:1->2:down");
    FaultInjector inj{plan};
    Simulator sim;
    mesh::MeshNetwork net{sim, meshCfg(&inj)};
    MessageRecord out;
    sim.spawn([](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
        o = co_await n.transfer(pkt(1, 2, 16));
    }(net, out));
    sim.run();
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(inj.reroutes(), 1u);
    EXPECT_EQ(inj.rerouteExtraHops(), 2u); // 1->5->6->2 vs 1->2
}

TEST(FaultedMesh, TorusReroutesAlongLongerArc)
{
    // On a 4x4 torus the ring 0..3 offers two arcs; with 0->1 down
    // the worm takes the three-hop westward arc 0->3->2->1 instead.
    FaultPlan plan = FaultPlan::parse("link:0->1:down");
    FaultInjector inj{plan};
    auto cfg = meshCfg(&inj);
    cfg.topology = mesh::Topology::Torus;
    cfg.virtualChannels = 2;
    Simulator sim;
    mesh::MeshNetwork net{sim, cfg};
    MessageRecord out;
    sim.spawn([](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
        o = co_await n.transfer(pkt(0, 1, 16));
    }(net, out));
    sim.run();
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(inj.reroutes(), 1u);
    EXPECT_EQ(inj.rerouteExtraHops(), 2u); // 3-hop arc vs 1-hop arc
}

TEST(FaultedMesh, UnreachableDownWestLinkFallsThrough)
{
    // West hops cannot be detoured under the west-first turn model:
    // the reroute search fails and the worm tail-drops as before.
    FaultPlan plan = FaultPlan::parse("link:1->0:down");
    FaultInjector inj{plan};
    Simulator sim;
    mesh::MeshNetwork net{sim, meshCfg(&inj)};
    MessageRecord out;
    sim.spawn([](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
        o = co_await n.transfer(pkt(1, 0, 16));
    }(net, out));
    sim.run();
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(inj.reroutes(), 0u);
    EXPECT_EQ(inj.linkDrops(), 1u);
}

TEST(FaultedMesh, ReverseDirectionUnaffected)
{
    FaultPlan plan = FaultPlan::parse("link:0->1:down");
    FaultInjector inj{plan};
    Simulator sim;
    mesh::MeshNetwork net{sim, meshCfg(&inj)};
    MessageRecord out;
    sim.spawn([](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
        o = co_await n.transfer(pkt(1, 0, 16));
    }(net, out));
    sim.run();
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(inj.linkDrops(), 0u);
}

TEST(FaultedMesh, CertainDropLosesEveryPacket)
{
    FaultPlan plan = FaultPlan::parse("drop:p=1");
    FaultInjector inj{plan};
    Simulator sim;
    mesh::MeshNetwork net{sim, meshCfg(&inj)};
    std::vector<MessageRecord> recs;
    auto sender = [](mesh::MeshNetwork &n, int src, int dst,
                     std::vector<MessageRecord> &out) -> Task<void> {
        out.push_back(co_await n.transfer(pkt(src, dst, 16)));
    };
    sim.spawn(sender(net, 0, 3, recs));
    sim.spawn(sender(net, 4, 7, recs));
    sim.run();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_FALSE(recs[0].delivered);
    EXPECT_FALSE(recs[1].delivered);
    EXPECT_EQ(inj.drops(), 2u);
}

TEST(FaultedMesh, CertainCorruptionDeliversTainted)
{
    FaultPlan plan = FaultPlan::parse("corrupt:p=1");
    FaultInjector inj{plan};
    Simulator sim;
    trace::TrafficLog log;
    mesh::MeshNetwork net{sim, meshCfg(&inj), &log};
    MessageRecord out;
    sim.spawn([](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
        o = co_await n.transfer(pkt(0, 5, 32));
    }(net, out));
    sim.run();
    EXPECT_TRUE(out.delivered);
    EXPECT_TRUE(out.corrupted);
    EXPECT_EQ(inj.corrupts(), 1u);
    ASSERT_EQ(log.size(), 1u); // corrupted worms still traverse
}

TEST(FaultedMesh, RouterStallAddsLatency)
{
    Simulator simA;
    mesh::MeshConfig plain = meshCfg(nullptr);
    mesh::MeshNetwork netA{simA, plain};
    MessageRecord base;
    simA.spawn(
        [](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
            o = co_await n.transfer(pkt(0, 3, 16));
        }(netA, base));
    simA.run();

    FaultPlan plan = FaultPlan::parse("router:0:stall=5");
    FaultInjector inj{plan};
    Simulator simB;
    mesh::MeshNetwork netB{simB, meshCfg(&inj)};
    MessageRecord slow;
    simB.spawn(
        [](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
            o = co_await n.transfer(pkt(0, 3, 16));
        }(netB, slow));
    simB.run();

    EXPECT_NEAR(slow.latency(), base.latency() + 5.0, 1e-9);
    EXPECT_EQ(inj.routerStalls(), 1u);
}

TEST(FaultedMesh, NoPlanMatchesFaultFreeTiming)
{
    // An injector with an empty plan must not perturb the simulation.
    FaultPlan empty;
    FaultInjector inj{empty};
    Simulator simA, simB;
    mesh::MeshNetwork netA{simA, meshCfg(nullptr)};
    mesh::MeshNetwork netB{simB, meshCfg(&inj)};
    MessageRecord a, b;
    simA.spawn(
        [](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
            o = co_await n.transfer(pkt(0, 15, 64));
        }(netA, a));
    simB.spawn(
        [](mesh::MeshNetwork &n, MessageRecord &o) -> Task<void> {
            o = co_await n.transfer(pkt(0, 15, 64));
        }(netB, b));
    simA.run();
    simB.run();
    EXPECT_DOUBLE_EQ(a.latency(), b.latency());
    EXPECT_TRUE(b.delivered);
    EXPECT_FALSE(b.corrupted);
}

// --------------------------------------------------------------------
// mp retransmission protocol

TEST(MpRetransmit, RecoversFromLossyLink)
{
    // Unbounded retries: every message eventually lands even though
    // each attempt loses the data or the ack 19% of the time.
    FaultPlan plan =
        FaultPlan::parse("seed=5; drop:p=0.1; retry:timeout=200,max=0");
    FaultInjector inj{plan};
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.mesh.faults = &inj;
    mp::MpWorld world{sim, cfg};
    std::vector<int> got;
    world.spawnRank(0, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 0};
        for (int i = 0; i < 20; ++i)
            co_await ctx.send(1, 64, i);
    }(world));
    world.spawnRank(1, [](mp::MpWorld &w,
                          std::vector<int> &out) -> Task<void> {
        mp::MpContext ctx{w, 1};
        for (int i = 0; i < 20; ++i)
            out.push_back(co_await ctx.recv(0, i));
    }(world, got));
    world.run();
    // Every message arrives exactly once despite the losses.
    EXPECT_EQ(got.size(), 20u);
    EXPECT_GT(world.retransmits(), 0u);
    EXPECT_EQ(world.deliveryFailures(), 0u);
    EXPECT_GT(world.acksReceived(), 0u);
}

TEST(MpRetransmit, BoundedRetriesGiveUpOnDeadLink)
{
    FaultPlan plan =
        FaultPlan::parse("link:0->1:down; retry:timeout=50,max=3");
    FaultInjector inj{plan};
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.mesh.faults = &inj;
    cfg.mesh.adaptiveRouting = false; // no detour: exhaust the budget
    mp::MpWorld world{sim, cfg};
    world.spawnRank(0, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 0};
        co_await ctx.send(1, 64);
    }(world));
    world.run();
    EXPECT_EQ(world.deliveryFailures(), 1u);
    EXPECT_EQ(world.retransmits(), 2u); // 3 attempts = 2 retries
    EXPECT_GE(inj.linkDrops(), 3u);
}

TEST(MpRetransmit, RerouteDeliversOverDeadLink)
{
    // Same dead link and budget, adaptive routing on: the first
    // attempt detours (0->2->3->1 is west-first legal) and no retry
    // budget is spent at all.
    FaultPlan plan =
        FaultPlan::parse("link:0->1:down; retry:timeout=50,max=3");
    FaultInjector inj{plan};
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.mesh.faults = &inj;
    mp::MpWorld world{sim, cfg};
    int got = 0;
    world.spawnRank(0, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 0};
        co_await ctx.send(1, 64);
    }(world));
    world.spawnRank(1, [](mp::MpWorld &w, int &out) -> Task<void> {
        mp::MpContext ctx{w, 1};
        out = co_await ctx.recv(0);
    }(world, got));
    world.run();
    EXPECT_EQ(got, 64);
    EXPECT_EQ(world.deliveryFailures(), 0u);
    EXPECT_EQ(world.retransmits(), 0u);
    EXPECT_GE(inj.reroutes(), 1u); // data worm (+ its ack path if hit)
    EXPECT_EQ(inj.linkDrops(), 0u);
}

TEST(MpRetransmit, FaultFreeWorldKeepsLegacyPath)
{
    // Without an injector the world must not emit acks or sequence
    // bookkeeping — the trace log sees exactly the app's messages.
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    mp::MpWorld world{sim, cfg};
    int got = 0;
    world.spawnRank(0, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 0};
        co_await ctx.send(1, 128);
    }(world));
    world.spawnRank(1, [](mp::MpWorld &w, int &out) -> Task<void> {
        mp::MpContext ctx{w, 1};
        out = co_await ctx.recv(0);
    }(world, got));
    world.run();
    EXPECT_EQ(got, 128);
    EXPECT_EQ(world.retransmits(), 0u);
    EXPECT_EQ(world.acksReceived(), 0u);
    EXPECT_EQ(world.log().size(), 1u);
}

// --------------------------------------------------------------------
// Replay resilience

trace::Trace
tinyTrace()
{
    trace::Trace t{4};
    t.add({0, 1, 64, MessageKind::Data, 1.0});
    t.add({1, 2, 64, MessageKind::Data, 1.0});
    t.add({2, 3, 64, MessageKind::Data, 1.0});
    return t;
}

TEST(ReplayResilience, RetriesUntilDelivered)
{
    FaultPlan plan = FaultPlan::parse("seed=11; drop:p=0.5");
    FaultInjector inj{plan};
    mesh::MeshConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    core::ReplayOptions opts;
    opts.faults = &inj;
    auto res = core::TraceReplayer::replay(tinyTrace(), cfg, opts);
    // All three messages eventually land intact.
    EXPECT_EQ(res.log.size(), 3u);
    EXPECT_EQ(res.deliveryFailures, 0u);
    EXPECT_EQ(res.retransmits, inj.drops());
}

TEST(ReplayResilience, BoundedBudgetReportsFailures)
{
    FaultPlan plan =
        FaultPlan::parse("link:0->1:down; retry:timeout=10,max=2");
    FaultInjector inj{plan};
    mesh::MeshConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    cfg.adaptiveRouting = false; // no detour: exhaust the budget
    core::ReplayOptions opts;
    opts.faults = &inj;
    auto res = core::TraceReplayer::replay(tinyTrace(), cfg, opts);
    EXPECT_EQ(res.deliveryFailures, 1u);
    EXPECT_EQ(res.linkDrops, 2u); // 2 attempts, both on the down link
    EXPECT_EQ(res.log.size(), 2u);
}

TEST(ReplayResilience, RerouteDeliversWholeTrace)
{
    // Adaptive routing on (the default): the 0->1 message detours
    // and the replay completes with zero failures and zero retries.
    FaultPlan plan =
        FaultPlan::parse("link:0->1:down; retry:timeout=10,max=2");
    FaultInjector inj{plan};
    mesh::MeshConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    core::ReplayOptions opts;
    opts.faults = &inj;
    auto res = core::TraceReplayer::replay(tinyTrace(), cfg, opts);
    EXPECT_EQ(res.deliveryFailures, 0u);
    EXPECT_EQ(res.retransmits, 0u);
    EXPECT_EQ(res.log.size(), 3u);
    EXPECT_EQ(inj.reroutes(), 1u); // only 0->1 crossed the dead link
}

// --------------------------------------------------------------------
// Sliding-window retransmission (retry:window=W, see DESIGN §6g)

/**
 * Run a two-rank MpWorld under `planSpec`: rank 0 sends `messages`
 * distinct-size messages to rank 1, rank 1 receives them in order.
 * Returns the received sizes (in delivery order to the app) and the
 * world's traffic log records via out-params.
 */
void
runWindowSession(const std::string &planSpec, int messages,
                 std::vector<int> &received,
                 std::vector<MessageRecord> &log,
                 std::uint64_t &retransmits)
{
    FaultPlan plan = FaultPlan::parse(planSpec);
    FaultInjector inj{plan};
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.mesh.faults = &inj;
    mp::MpWorld world{sim, cfg};
    world.spawnRank(0, [](mp::MpWorld &w, int n) -> Task<void> {
        mp::MpContext ctx{w, 0};
        for (int i = 0; i < n; ++i)
            co_await ctx.send(1, 64 + i);
    }(world, messages));
    world.spawnRank(1,
                    [](mp::MpWorld &w, int n,
                       std::vector<int> &out) -> Task<void> {
                        mp::MpContext ctx{w, 1};
                        for (int i = 0; i < n; ++i)
                            out.push_back(co_await ctx.recv(0));
                    }(world, messages, received));
    world.run();
    log = world.log().records();
    retransmits = world.retransmits();
}

TEST(MpWindow, WindowOneIsStopAndWait)
{
    // retry:window=1 must be byte-identical to the pre-window
    // stop-and-wait protocol (the same legacy code path runs).
    const std::string base = "seed=5; drop:p=0.2; retry:timeout=30,max=0";
    std::vector<int> gotA, gotB;
    std::vector<MessageRecord> logA, logB;
    std::uint64_t rtA = 0, rtB = 0;
    runWindowSession(base, 10, gotA, logA, rtA);
    runWindowSession(base + ",window=1", 10, gotB, logB, rtB);
    EXPECT_EQ(gotA, gotB);
    EXPECT_EQ(rtA, rtB);
    ASSERT_EQ(logA.size(), logB.size());
    for (std::size_t i = 0; i < logA.size(); ++i) {
        EXPECT_EQ(logA[i].src, logB[i].src);
        EXPECT_EQ(logA[i].dst, logB[i].dst);
        EXPECT_EQ(logA[i].bytes, logB[i].bytes);
        EXPECT_DOUBLE_EQ(logA[i].injectTime, logB[i].injectTime);
        EXPECT_DOUBLE_EQ(logA[i].deliverTime, logB[i].deliverTime);
    }
}

TEST(MpWindow, WindowEightDeliversSameMessageSequence)
{
    // The reordered-delivery invariant: whatever the wire reorders or
    // duplicates, the receiver's app sees the same in-order sequence
    // a window of 1 delivers (per-destination in-order delivery).
    const std::string base = "seed=5; drop:p=0.25; retry:timeout=30,max=0";
    std::vector<int> gotA, gotB;
    std::vector<MessageRecord> logA, logB;
    std::uint64_t rtA = 0, rtB = 0;
    runWindowSession(base + ",window=1", 20, gotA, logA, rtA);
    runWindowSession(base + ",window=8", 20, gotB, logB, rtB);
    ASSERT_EQ(gotA.size(), 20u);
    EXPECT_EQ(gotA, gotB);
    // The pipelined window needs no more data-packet wire attempts
    // than stop-and-wait obtained (same Bernoulli stream), and with 8
    // packets in flight the makespan can only shrink or hold.
    EXPECT_GT(rtB, 0u) << "p=0.25 over 20 messages must retransmit";
}

TEST(MpWindow, CertainDropFailsDeliveriesWithoutTrippingWatchdog)
{
    // drop:1.0 regression (DESIGN §6b caveat): a bounded retry budget
    // draining is progress toward the accounted delivery-failure
    // deadlock exit, not a livelock — the watchdog must stay quiet
    // and the run must end in the diagnosable exit-4 deadlock path.
    FaultPlan plan =
        FaultPlan::parse("drop:p=1; retry:timeout=20,max=3,window=4");
    FaultInjector inj{plan};
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.mesh.faults = &inj;
    mp::MpWorld world{sim, cfg};
    // Check horizon (600us) comfortably above the bounded drain
    // (~220us with this budget), mirroring the drivers' much larger
    // 40ms default: resolved failures count as probe progress.
    desim::Watchdog dog{sim, {.checkPeriodUs = 200.0, .stallChecks = 3}};
    dog.setProgressProbe([&world] {
        return world.network().messageCount() + world.deliveryFailures();
    });
    dog.arm();
    world.spawnRank(0, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 0};
        co_await ctx.send(1, 64);
        co_await ctx.send(1, 65);
    }(world));
    world.spawnRank(1, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 1};
        co_await ctx.recv(0);
        co_await ctx.recv(0);
    }(world));
    try {
        world.run();
        FAIL() << "expected an application deadlock";
    } catch (const core::CCharError &e) {
        EXPECT_EQ(e.status().code(), core::StatusCode::SimError);
        EXPECT_NE(std::string{e.what()}.find("delivery failures"),
                  std::string::npos);
    }
    EXPECT_FALSE(dog.tripped());
    EXPECT_EQ(world.deliveryFailures(), 2u);
    EXPECT_EQ(world.retransmits(), 4u); // 3 attempts each = 2 retries
}

TEST(MpWindow, UnboundedNoDeliveryLoopStillTripsWatchdog)
{
    // The counterpart guarantee: max=0 on a hopeless plan is a real
    // livelock (no deliveries, no accounted failures) and the
    // watchdog must convert it into the exit-5 diagnosis.
    FaultPlan plan =
        FaultPlan::parse("drop:p=1; retry:timeout=20,max=0,window=2");
    FaultInjector inj{plan};
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.mesh.faults = &inj;
    mp::MpWorld world{sim, cfg};
    desim::Watchdog dog{sim, {.checkPeriodUs = 50.0, .stallChecks = 3}};
    dog.setProgressProbe([&world] {
        return world.network().messageCount() + world.deliveryFailures();
    });
    dog.arm();
    world.spawnRank(0, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 0};
        co_await ctx.send(1, 64);
    }(world));
    world.spawnRank(1, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 1};
        co_await ctx.recv(0);
    }(world));
    EXPECT_THROW(world.run(), desim::WatchdogError);
    EXPECT_TRUE(dog.tripped());
    EXPECT_EQ(world.deliveryFailures(), 0u);
}

TEST(MpWindow, PerRankCountersAttributeRecoveryWork)
{
    FaultPlan plan =
        FaultPlan::parse("seed=9; corrupt:p=0.4; retry:timeout=40,max=0");
    FaultInjector inj{plan};
    Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.mesh.faults = &inj;
    mp::MpWorld world{sim, cfg};
    std::vector<int> got;
    world.spawnRank(0, [](mp::MpWorld &w) -> Task<void> {
        mp::MpContext ctx{w, 0};
        for (int i = 0; i < 10; ++i)
            co_await ctx.send(1, 64);
    }(world));
    world.spawnRank(1,
                    [](mp::MpWorld &w, std::vector<int> &out) -> Task<void> {
                        mp::MpContext ctx{w, 1};
                        for (int i = 0; i < 10; ++i)
                            out.push_back(co_await ctx.recv(0));
                    }(world, got));
    world.run();
    ASSERT_EQ(world.rankRetransmits().size(), 4u);
    ASSERT_EQ(world.rankCorruptDiscards().size(), 4u);
    // Sender-attributed retries live on rank 0 (acks can be corrupted
    // too, so rank 1 never retransmits but rank 0 may discard); every
    // injector corruption ends as exactly one receiver discard.
    EXPECT_EQ(world.rankRetransmits()[0], world.retransmits());
    EXPECT_EQ(world.rankRetransmits()[1], 0u);
    std::uint64_t discards = 0;
    for (std::uint64_t d : world.rankCorruptDiscards())
        discards += d;
    EXPECT_GT(world.rankCorruptDiscards()[1], 0u);
    EXPECT_EQ(discards, inj.corrupts());
}

// --------------------------------------------------------------------
// Watchdog

TEST(Watchdog, TripsOnLivelock)
{
    // An endless self-rescheduling poller makes no probe progress.
    Simulator sim;
    std::function<void()> tick = [&] {
        sim.schedule(tick, sim.now() + 1.0);
    };
    sim.schedule(tick, 1.0);
    desim::Watchdog dog{sim, {.checkPeriodUs = 10.0, .stallChecks = 3}};
    dog.setProgressProbe([] { return std::uint64_t{0}; });
    dog.arm();
    EXPECT_THROW(sim.run(), desim::WatchdogError);
    EXPECT_TRUE(dog.tripped());
}

TEST(Watchdog, StaysQuietWhenProgressing)
{
    Simulator sim;
    std::uint64_t work = 0;
    std::function<void()> tick = [&] {
        if (++work < 100)
            sim.schedule(tick, sim.now() + 1.0);
    };
    sim.schedule(tick, 1.0);
    desim::Watchdog dog{sim, {.checkPeriodUs = 5.0, .stallChecks = 2}};
    dog.setProgressProbe([&] { return work; });
    dog.arm();
    EXPECT_NO_THROW(sim.run());
    EXPECT_FALSE(dog.tripped());
    EXPECT_GT(dog.checks(), 0u);
}

TEST(Watchdog, NeverKeepsDrainedSimAlive)
{
    Simulator sim;
    desim::Watchdog dog{sim, {.checkPeriodUs = 1.0, .stallChecks = 2}};
    dog.setProgressProbe([] { return std::uint64_t{0}; });
    dog.arm();
    sim.run(); // no events: returns immediately, no trip
    EXPECT_FALSE(dog.tripped());
}

TEST(Watchdog, SimTimeHorizonTrips)
{
    Simulator sim;
    std::uint64_t work = 0;
    std::function<void()> tick = [&] {
        ++work; // real progress, but past the horizon
        sim.schedule(tick, sim.now() + 1.0);
    };
    sim.schedule(tick, 1.0);
    desim::Watchdog dog{
        sim,
        {.checkPeriodUs = 10.0, .stallChecks = 100,
         .maxSimTimeUs = 50.0}};
    dog.setProgressProbe([&] { return work; });
    dog.arm();
    EXPECT_THROW(sim.run(), desim::WatchdogError);
}

// --------------------------------------------------------------------
// End-to-end determinism

TEST(FaultDeterminism, SameSeedSamePlanSameOutcome)
{
    auto run = [](std::uint64_t seed) {
        FaultPlan plan = FaultPlan::parse("drop:p=0.3; corrupt:p=0.1");
        plan.setSeed(seed);
        FaultInjector inj{plan};
        mesh::MeshConfig cfg;
        cfg.width = 2;
        cfg.height = 2;
        core::ReplayOptions opts;
        opts.faults = &inj;
        auto res = core::TraceReplayer::replay(tinyTrace(), cfg, opts);
        std::ostringstream os;
        os << res.makespan << '|' << res.retransmits << '|'
           << res.droppedPackets << '|' << res.corruptedPackets;
        for (const auto &r : res.log.records())
            os << '|' << r.src << ',' << r.dst << ',' << r.deliverTime;
        return os.str();
    };
    EXPECT_EQ(run(123), run(123));
    EXPECT_NE(run(123), run(321));
}

// --------------------------------------------------------------------
// Status / exit-code model

TEST(Status, ExitCodeMapping)
{
    using core::StatusCode;
    EXPECT_EQ(core::exitCodeOf(StatusCode::Ok), 0);
    EXPECT_EQ(core::exitCodeOf(StatusCode::UsageError), 2);
    EXPECT_EQ(core::exitCodeOf(StatusCode::ParseError), 3);
    EXPECT_EQ(core::exitCodeOf(StatusCode::IoError), 3);
    EXPECT_EQ(core::exitCodeOf(StatusCode::SimError), 4);
    EXPECT_EQ(core::exitCodeOf(StatusCode::WatchdogTrip), 5);
}

TEST(Status, DiagnosticSinkBoundsRetention)
{
    core::DiagnosticSink sink;
    core::ScopedDiagnostics guard{&sink};
    for (int i = 0; i < 100; ++i)
        core::reportDiagnostic(core::DiagSeverity::Warning, "w");
    EXPECT_EQ(sink.total(), 100u);
    EXPECT_LE(sink.entries().size(), 64u);
}

} // namespace
