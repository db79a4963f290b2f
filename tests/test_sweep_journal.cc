/**
 * @file
 * Tests for the crash-safe sweep orchestration layer: the job
 * journal (canonical hashing, parse/format fixpoint, torn-tail
 * tolerance), resume byte-identity against an uninterrupted run,
 * per-job deadlines with retry/quarantine, and graceful shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "apps/diag.hh"
#include "apps/registry.hh"
#include "core/status.hh"
#include "obs/registry.hh"
#include "sweep/engine.hh"
#include "sweep/journal.hh"
#include "sweep/policy.hh"
#include "sweep/spec.hh"

namespace {

using namespace cchar;
using sweep::JobOutcome;
using sweep::JournalContents;
using sweep::JournalRecord;
using sweep::JournalWriter;
using sweep::SweepEngine;
using sweep::SweepJob;
using sweep::SweepResult;
using sweep::SweepRunOptions;
using sweep::SweepSpec;

// Sanitizer instrumentation slows the simulator by an order of
// magnitude, so deadlines that must NOT fire on healthy jobs are
// scaled up to keep the deadline tests meaningful under TSan/ASan.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kDeadlineScale = 20.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kDeadlineScale = 20.0;
#else
constexpr double kDeadlineScale = 1.0;
#endif
#else
constexpr double kDeadlineScale = 1.0;
#endif

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "cchar_journal_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f{path, std::ios::binary};
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.apps = {"is", "mg"};
    spec.procs = {4};
    spec.loads = {0.2, 0.5};
    spec.seeds = {1, 2};
    return spec;
}

std::string
jsonOf(const SweepResult &result)
{
    std::ostringstream os;
    result.writeJson(os);
    return os.str();
}

std::string
csvOf(const SweepResult &result)
{
    std::ostringstream os;
    result.writeCsv(os);
    return os.str();
}

// --------------------------------------------------------------------
// Canonical hashing

TEST(JobHash, DistinguishesEveryField)
{
    SweepJob base;
    base.app = "is";
    base.procs = 4;
    base.width = 2;
    base.height = 2;
    base.load = 0.3;
    base.seed = 7;

    std::uint64_t h = sweep::jobHash(base);
    EXPECT_EQ(h, sweep::jobHash(base)) << "hash must be stable";

    SweepJob j = base;
    j.index = 5;
    EXPECT_NE(sweep::jobHash(j), h);
    j = base;
    j.app = "mg";
    EXPECT_NE(sweep::jobHash(j), h);
    j = base;
    j.load = 0.30000000000000004; // one ulp away
    EXPECT_NE(sweep::jobHash(j), h);
    j = base;
    j.seed = 8;
    EXPECT_NE(sweep::jobHash(j), h);
    j = base;
    j.torus = true;
    EXPECT_NE(sweep::jobHash(j), h);
    j = base;
    j.faultPlan = "drop:0.1";
    EXPECT_NE(sweep::jobHash(j), h);
    j = base;
    j.rankActivity = true;
    EXPECT_NE(sweep::jobHash(j), h);
}

TEST(JobHash, StringBoundariesDoNotCollide)
{
    // The 0x1f string terminator must keep ("ab","c") distinct from
    // ("a","bc") across adjacent string fields.
    SweepJob a;
    a.app = "ab";
    a.faultPlan = "c";
    SweepJob b;
    b.app = "a";
    b.faultPlan = "bc";
    EXPECT_NE(sweep::jobHash(a), sweep::jobHash(b));
}

TEST(SpecHash, DependsOnOrderAndCount)
{
    std::vector<SweepJob> jobs = smallSpec().expand();
    std::uint64_t h = sweep::specHash(jobs);
    EXPECT_EQ(h, sweep::specHash(jobs));

    std::vector<SweepJob> swapped = jobs;
    std::swap(swapped.front().app, swapped.back().app); // "is" <-> "mg"
    EXPECT_NE(sweep::specHash(swapped), h);

    std::vector<SweepJob> shorter(jobs.begin(), jobs.end() - 1);
    EXPECT_NE(sweep::specHash(shorter), h);
}

// --------------------------------------------------------------------
// Parse/format fixpoint

JournalRecord
randomRecord(std::mt19937 &rng, std::uint64_t index)
{
    std::uniform_real_distribution<double> uni(-1.0, 1.0);
    std::uniform_int_distribution<std::uint64_t> big(
        0, std::numeric_limits<std::uint64_t>::max());
    std::uniform_int_distribution<int> small(0, 1000);

    JournalRecord rec;
    rec.hash = big(rng);
    JobOutcome &o = rec.outcome;
    o.job.index = static_cast<std::size_t>(index);
    // Every outcome column gets a value no other column shares, so a
    // reader that fills the wrong member cannot go unnoticed. Integers
    // span the full 64 bits (doubles cannot carry values past 2^53);
    // strings carry quotes, backslashes and control bytes.
    sweep::forEachField(
        sweep::kOutcomeFields, o, [&](const auto &field, auto &value) {
            using T = std::decay_t<decltype(value)>;
            if constexpr (std::is_same_v<T, double>)
                value = uni(rng) * 1e6;
            else if constexpr (std::is_same_v<T, std::string>)
                value = std::string{field.name} +
                        "\n\t\"quoted\" b\\slash \x01\x1f,";
            else if constexpr (std::is_same_v<T, bool>)
                value = big(rng) % 2 == 0;
            else if constexpr (std::is_same_v<T, int>)
                value = small(rng);
            else
                value = big(rng);
        });
    // Awkward doubles: denormal, negative zero, DBL_MAX and a tiny one.
    o.latencyMean = 5e-324; // smallest denormal
    o.latencyMax = -0.0;
    o.makespan = 0x1.fffffffffffffp+1023; // DBL_MAX
    o.skewMaxUs = uni(rng) * 1e-300;

    rec.counters.emplace_back("a.count", big(rng));
    rec.counters.emplace_back("b.count", std::uint64_t{0});
    rec.gauges.emplace_back("g.denormal", 4.9e-324);
    rec.gauges.emplace_back("g.value", uni(rng));
    obs::HistogramData h;
    h.count = 3;
    h.sum = uni(rng);
    h.min = uni(rng) - 2.0;
    h.max = uni(rng) + 2.0;
    h.buckets[0] = 1;
    h.buckets[17] = big(rng);
    h.buckets[obs::HistogramData::kBuckets - 1] = 1;
    rec.histograms.emplace_back("h.lat", h);
    return rec;
}

/** Equal values; doubles compared bit for bit (-0.0 != 0.0). */
template <class T>
bool
sameBits(const T &a, const T &b)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    else
        return a == b;
}

TEST(JournalFormat, ParseFormatFixpointOnRandomRecords)
{
    // The comparison below goes through the column table, so first
    // make sure no two columns share a name or a member.
    const auto &fields = sweep::kOutcomeFields;
    for (std::size_t a = 0; a < std::size(fields); ++a) {
        for (std::size_t b = a + 1; b < std::size(fields); ++b) {
            EXPECT_STRNE(fields[a].name, fields[b].name);
            EXPECT_NE(fields[a].member, fields[b].member)
                << fields[a].name << " / " << fields[b].name;
        }
    }

    std::mt19937 rng{12345};
    for (std::uint64_t i = 0; i < 50; ++i) {
        JournalRecord rec = randomRecord(rng, i);
        std::string doc = sweep::formatJournalHeader(0xabcdefull, 100) +
                          sweep::formatJournalRecord(rec);
        JournalContents parsed = sweep::parseJournal(doc);
        ASSERT_EQ(parsed.records.size(), 1u) << "iteration " << i;
        EXPECT_FALSE(parsed.truncatedTail);

        // format(parse(format(r))) == format(r): serialization is a
        // fixpoint, which is what byte-identical resume rests on.
        std::string again =
            sweep::formatJournalRecord(parsed.records[0]);
        EXPECT_EQ(sweep::formatJournalRecord(rec), again)
            << "iteration " << i;

        // Every journaled column survives exactly.
        const JobOutcome &o = parsed.records[0].outcome;
        EXPECT_EQ(parsed.records[0].hash, rec.hash);
        EXPECT_EQ(o.job.index, rec.outcome.job.index);
        for (const auto &field : sweep::kOutcomeFields) {
            std::visit(
                [&](auto member) {
                    EXPECT_TRUE(sameBits(o.*member, rec.outcome.*member))
                        << field.name << ", iteration " << i;
                },
                field.member);
        }
        ASSERT_EQ(parsed.records[0].histograms.size(), 1u);
        EXPECT_EQ(parsed.records[0].histograms[0].second.buckets,
                  rec.histograms[0].second.buckets);
    }
}

TEST(JournalFormat, HeaderRoundTrips)
{
    std::string doc = sweep::formatJournalHeader(0x1234abcd5678ull, 42);
    JournalContents parsed = sweep::parseJournal(doc);
    EXPECT_EQ(parsed.specHash, 0x1234abcd5678ull);
    EXPECT_EQ(parsed.jobs, 42u);
    EXPECT_TRUE(parsed.records.empty());
}

TEST(JournalFormat, TornFinalLineIsToleratedNotFatal)
{
    std::mt19937 rng{99};
    JournalRecord rec = randomRecord(rng, 0);
    std::string line = sweep::formatJournalRecord(rec);
    std::string header = sweep::formatJournalHeader(7, 3);

    // Chop the final record mid-content: a SIGKILL can land mid-write
    // at any byte. (A record missing only its trailing newline is
    // complete JSON and is deliberately accepted, so the cuts here
    // all land strictly inside the record body.)
    for (std::size_t cut : {std::size_t{1}, line.size() / 2,
                            line.size() - 2}) {
        std::string doc = header + line + line.substr(0, cut);
        JournalContents parsed;
        ASSERT_NO_THROW(parsed = sweep::parseJournal(doc))
            << "cut=" << cut;
        EXPECT_TRUE(parsed.truncatedTail) << "cut=" << cut;
        ASSERT_EQ(parsed.records.size(), 1u) << "cut=" << cut;
    }

    // The newline-less-but-complete final record is kept.
    JournalContents whole = sweep::parseJournal(
        header + line + line.substr(0, line.size() - 1));
    EXPECT_FALSE(whole.truncatedTail);
    EXPECT_EQ(whole.records.size(), 2u);
}

TEST(JournalFormat, MalformedMidlineIsFatal)
{
    std::mt19937 rng{100};
    std::string doc = sweep::formatJournalHeader(7, 3) +
                      "{\"type\":\"job\",\"hash\":garbage}\n" +
                      sweep::formatJournalRecord(randomRecord(rng, 1));
    EXPECT_THROW(sweep::parseJournal(doc), core::CCharError);
}

TEST(JournalFormat, MissingOrRepeatedColumnIsFatalMidFile)
{
    std::mt19937 rng{101};
    const std::string header = sweep::formatJournalHeader(7, 3);
    const std::string line =
        sweep::formatJournalRecord(randomRecord(rng, 1));

    // A record without its synth_volume_ks column, and one that
    // repeats attempts.
    std::string missing = line;
    std::size_t at = missing.find(",\"synth_volume_ks\":");
    ASSERT_NE(at, std::string::npos);
    missing.erase(at, missing.find(",\"", at + 1) - at);
    std::string repeated = line;
    repeated.insert(repeated.find(",\"counters\":"), ",\"attempts\":2");

    for (const std::string &bad : {missing, repeated}) {
        EXPECT_THROW(sweep::parseJournal(header + bad + line),
                     core::CCharError)
            << bad;
        // As the final line it is indistinguishable from a torn
        // append: dropped, and the job reruns.
        JournalContents parsed;
        ASSERT_NO_THROW(parsed = sweep::parseJournal(header + line + bad))
            << bad;
        EXPECT_TRUE(parsed.truncatedTail);
        EXPECT_EQ(parsed.records.size(), 1u);
    }
}

TEST(JournalFormat, BadHeaderIsFatal)
{
    EXPECT_THROW(sweep::parseJournal("{\"type\":\"nope\"}\n"),
                 core::CCharError);
    EXPECT_THROW(sweep::parseJournal(""), core::CCharError);
}

// --------------------------------------------------------------------
// Journal writer + engine resume

TEST(JournalResume, PartialJournalReproducesUninterruptedBytes)
{
    SweepSpec spec = smallSpec();
    std::string journalPath = tempPath("resume.jsonl");

    SweepRunOptions full;
    full.workers = 2;
    full.journalPath = journalPath;
    SweepResult base = SweepEngine{spec}.run(full);
    std::string baseJson = jsonOf(base);
    std::string baseCsv = csvOf(base);
    ASSERT_EQ(base.failures(), 0u);

    std::string journal = slurp(journalPath);
    std::vector<std::string> lines;
    std::istringstream is{journal};
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1u + base.outcomes.size());

    // Resume from every prefix: header only (nothing resumed) up to
    // the complete journal (everything resumed, nothing rerun).
    for (std::size_t keep = 0; keep <= base.outcomes.size();
         keep += 3) {
        std::string partialPath = tempPath("resume_partial.jsonl");
        {
            std::ofstream f{partialPath, std::ios::binary};
            for (std::size_t i = 0; i <= keep; ++i)
                f << lines[i] << "\n";
        }
        SweepRunOptions opts;
        opts.workers = 2;
        opts.resumePath = partialPath;
        SweepResult resumed = SweepEngine{spec}.run(opts);
        EXPECT_EQ(resumed.resumedJobs, keep) << "keep=" << keep;
        EXPECT_EQ(jsonOf(resumed), baseJson) << "keep=" << keep;
        EXPECT_EQ(csvOf(resumed), baseCsv) << "keep=" << keep;
        std::remove(partialPath.c_str());
    }
    std::remove(journalPath.c_str());
}

TEST(JournalResume, ResumeIntoFreshJournalIsSelfComplete)
{
    SweepSpec spec = smallSpec();
    std::string firstPath = tempPath("first.jsonl");
    std::string secondPath = tempPath("second.jsonl");

    SweepRunOptions full;
    full.workers = 1;
    full.journalPath = firstPath;
    SweepResult base = SweepEngine{spec}.run(full);

    // Chop the journal, then resume into a *different* file.
    std::string journal = slurp(firstPath);
    std::size_t cut = 0;
    for (int n = 0; n < 4; ++n) // header + 3 records
        cut = journal.find('\n', cut) + 1;
    {
        std::ofstream f{firstPath, std::ios::binary};
        f << journal.substr(0, cut);
    }
    SweepRunOptions opts;
    opts.workers = 1;
    opts.resumePath = firstPath;
    opts.journalPath = secondPath;
    SweepResult resumed = SweepEngine{spec}.run(opts);
    EXPECT_EQ(resumed.resumedJobs, 3u);
    EXPECT_EQ(jsonOf(resumed), jsonOf(base));

    // The new journal alone must now resume the whole matrix.
    SweepRunOptions again;
    again.workers = 2;
    again.resumePath = secondPath;
    SweepResult replayed = SweepEngine{spec}.run(again);
    EXPECT_EQ(replayed.resumedJobs, base.outcomes.size());
    EXPECT_EQ(jsonOf(replayed), jsonOf(base));

    std::remove(firstPath.c_str());
    std::remove(secondPath.c_str());
}

TEST(JournalResume, MismatchedSpecIsRejected)
{
    SweepSpec spec = smallSpec();
    std::string path = tempPath("mismatch.jsonl");
    SweepRunOptions full;
    full.journalPath = path;
    (void)SweepEngine{spec}.run(full);

    SweepSpec other = smallSpec();
    other.loads = {0.9};
    SweepRunOptions opts;
    opts.resumePath = path;
    EXPECT_THROW(SweepEngine{other}.run(opts), core::CCharError);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Policy helpers

TEST(Policy, TransientClassification)
{
    EXPECT_TRUE(sweep::isTransientStatus("deadline-exceeded"));
    EXPECT_TRUE(sweep::isTransientStatus("watchdog-trip"));
    EXPECT_FALSE(sweep::isTransientStatus("sim-error"));
    EXPECT_FALSE(sweep::isTransientStatus("usage-error"));
    EXPECT_FALSE(sweep::isTransientStatus("ok"));
}

TEST(Policy, BackoffDoublesAndClamps)
{
    sweep::JobPolicy p;
    p.backoffMs = 100.0;
    EXPECT_DOUBLE_EQ(sweep::backoffDelayMs(p, 2), 100.0);
    EXPECT_DOUBLE_EQ(sweep::backoffDelayMs(p, 3), 200.0);
    EXPECT_DOUBLE_EQ(sweep::backoffDelayMs(p, 4), 400.0);
    EXPECT_DOUBLE_EQ(sweep::backoffDelayMs(p, 12), 5000.0);
}

// --------------------------------------------------------------------
// Deadlines, retry, quarantine, shutdown (engine level)

SweepSpec
diagSpec(const std::string &diagApp)
{
    SweepSpec spec;
    spec.apps = {diagApp, "is"};
    spec.procs = {4};
    spec.loads = {0.2};
    spec.seeds = {1};
    return spec;
}

TEST(Orchestration, HangingJobIsQuarantinedOthersSurvive)
{
    SweepRunOptions opts;
    opts.workers = 2;
    opts.policy.jobTimeoutSec = 0.25 * kDeadlineScale;
    opts.policy.maxRetries = 1;
    opts.policy.backoffMs = 10.0;
    SweepResult result = SweepEngine{diagSpec("diag-spin")}.run(opts);

    ASSERT_EQ(result.outcomes.size(), 2u);
    const JobOutcome &hung = result.outcomes[0];
    const JobOutcome &good = result.outcomes[1];
    EXPECT_EQ(hung.job.app, "diag-spin");
    EXPECT_EQ(hung.status, "deadline-exceeded");
    EXPECT_TRUE(hung.quarantined);
    EXPECT_EQ(hung.attempts, 2) << "one retry then quarantine";
    EXPECT_EQ(good.status, "ok");
    EXPECT_TRUE(good.verified);
    EXPECT_EQ(result.quarantinedCount(), 1u);
    EXPECT_EQ(result.retries(), 1u);
    EXPECT_FALSE(result.interrupted);

    // Degraded section present, with the quarantined job only.
    std::string json = jsonOf(result);
    EXPECT_NE(json.find("\"degraded\":[{\"index\":0,"
                        "\"app\":\"diag-spin\""),
              std::string::npos);
}

TEST(Orchestration, DeterministicFailureIsNotRetried)
{
    SweepRunOptions opts;
    opts.workers = 4;
    opts.policy.jobTimeoutSec = 30.0;
    opts.policy.maxRetries = 3;
    SweepResult result = SweepEngine{diagSpec("diag-throw")}.run(opts);

    const JobOutcome &thrown = result.outcomes[0];
    EXPECT_EQ(thrown.status, "sim-error");
    EXPECT_EQ(thrown.attempts, 1)
        << "a deterministic failure must not burn the retry budget";
    EXPECT_TRUE(thrown.quarantined);
    EXPECT_EQ(result.outcomes[1].status, "ok");
}

TEST(Orchestration, ThrowingJobDoesNotKillThePool)
{
    // Regression: an exception escaping a job must be recorded in its
    // outcome, not propagate out of the worker thread (which would
    // std::terminate the process). Every worker drains past it and
    // the result stays byte-identical across worker counts.
    SweepSpec spec;
    spec.apps = {"diag-throw", "is", "mg"};
    spec.procs = {4};
    spec.loads = {0.2, 0.4};
    spec.seeds = {1, 2};

    SweepResult serial = SweepEngine{spec}.run({.workers = 1});
    SweepResult wide = SweepEngine{spec}.run({.workers = 4});
    EXPECT_EQ(jsonOf(serial), jsonOf(wide));
    EXPECT_EQ(csvOf(serial), csvOf(wide));
    EXPECT_GT(serial.failures(), 0u);
    for (const JobOutcome &o : wide.outcomes) {
        if (o.job.app == "diag-throw")
            EXPECT_EQ(o.status, "sim-error");
        else
            EXPECT_EQ(o.status, "ok");
    }
}

TEST(Orchestration, FlakyJobRecoversWithinRetryBudget)
{
    // Transient wall-clock failure: the first attempt spins until the
    // deadline cancels it, every later attempt completes instantly.
    static std::atomic<int> constructions{0};
    constructions.store(0);

    class FlakyOnce : public apps::MessagePassingApp
    {
      public:
        explicit FlakyOnce(bool hang) : hang_(hang) {}
        std::string name() const override { return "diag-flaky"; }
        void setup(mp::MpWorld &) override {}
        desim::Task<void> runRank(mp::MpContext ctx) override
        {
            if (hang_) {
                for (;;)
                    co_await ctx.compute(100.0);
            }
            co_await ctx.compute(10.0);
        }
        bool verify() const override { return !hang_; }

      private:
        bool hang_;
    };
    apps::registerMessagePassingApp("diag-flaky", [] {
        int n = constructions.fetch_add(1);
        return std::make_unique<FlakyOnce>(n == 0);
    });

    SweepSpec spec;
    spec.apps = {"diag-flaky"};
    spec.procs = {4};
    spec.loads = {0.2};
    spec.seeds = {1};

    SweepRunOptions opts;
    opts.policy.jobTimeoutSec = 0.25 * kDeadlineScale;
    opts.policy.maxRetries = 2;
    opts.policy.backoffMs = 10.0;
    SweepResult result = SweepEngine{spec}.run(opts);

    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_EQ(result.outcomes[0].status, "ok");
    EXPECT_EQ(result.outcomes[0].attempts, 2);
    EXPECT_FALSE(result.outcomes[0].quarantined);
    EXPECT_EQ(result.retries(), 1u);
    EXPECT_EQ(result.quarantinedCount(), 0u);
}

TEST(Orchestration, PresetShutdownInterruptsEverything)
{
    std::atomic<int> shutdown{1};
    SweepRunOptions opts;
    opts.workers = 2;
    opts.shutdown = &shutdown;
    SweepResult result = SweepEngine{smallSpec()}.run(opts);

    EXPECT_TRUE(result.interrupted);
    EXPECT_EQ(result.interruptedCount(), result.outcomes.size());
    for (const JobOutcome &o : result.outcomes) {
        EXPECT_EQ(o.status, "interrupted");
        EXPECT_EQ(o.attempts, 0) << "never started";
        EXPECT_FALSE(o.quarantined)
            << "interruption is not a job failure";
    }
}

TEST(Orchestration, RetryCountersReachTheMergedRegistry)
{
    SweepRunOptions opts;
    opts.policy.jobTimeoutSec = 0.25 * kDeadlineScale;
    opts.policy.maxRetries = 0;
    SweepResult result = SweepEngine{diagSpec("diag-spin")}.run(opts);
    ASSERT_TRUE(result.metrics != nullptr);

    std::ostringstream os;
    result.metrics->writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"sweep.quarantined\":1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"sweep.retries\":0"), std::string::npos);
    // Resumed-job count is wall-clock-dependent, so the gauge must be
    // zeroed in the serialized registry like the worker gauges.
    EXPECT_NE(json.find("\"sweep.resumed_jobs\":0"),
              std::string::npos);
}

} // namespace
