#include "engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>

#include "apps/registry.hh"
#include "core/analyzers.hh"
#include "core/pipeline.hh"
#include "core/status.hh"
#include "core/synthetic.hh"
#include "desim/watchdog.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "journal.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "policy.hh"
#include "stats/spatial.hh"

namespace cchar::sweep {

namespace {

using obs::writeJsonString;

/**
 * Gauges derived from wall-clock measurement (or from worker
 * scheduling, which is just as nondeterministic). Everything else in a
 * job registry is a pure function of the job parameters; these are
 * zeroed after the merge so the aggregate report stays byte-identical
 * across worker counts and machines. The sweep.worker.* family uses
 * count-independent names for the same reason: per-worker-indexed
 * names would change the key set with -j. Real values live in
 * SweepResult::workerStats.
 */
const char *const kWallClockGauges[] = {
    "desim.events_per_sec",
    "sweep.workers",
    "sweep.worker.busy_fraction_mean",
    "sweep.worker.busy_fraction_min",
    "sweep.worker.busy_fraction_max",
    "sweep.worker.jobs_mean",
    "sweep.worker.jobs_min",
    "sweep.worker.jobs_max",
    "sweep.resumed_jobs",
};

void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << 0;
        return;
    }
    std::ostringstream tmp;
    tmp.precision(12);
    tmp << v;
    os << tmp.str();
}

void
csvField(std::ostream &os, const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos) {
        os << s;
        return;
    }
    os << '"';
    for (char c : s) {
        if (c == '"')
            os << '"';
        os << c;
    }
    os << '"';
}

/** One column value in the JSON report. */
template <class T>
void
jsonValue(std::ostream &os, const T &v)
{
    if constexpr (std::is_same_v<T, double>)
        jsonNumber(os, v);
    else if constexpr (std::is_same_v<T, std::string>)
        writeJsonString(os, v);
    else if constexpr (std::is_same_v<T, bool>)
        os << (v ? "true" : "false");
    else
        os << v;
}

/** One column value in the CSV: as in JSON, but RFC 4180 strings and
 *  1/0 booleans. */
template <class T>
void
csvValue(std::ostream &os, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        csvField(os, v);
    else if constexpr (std::is_same_v<T, bool>)
        os << (v ? 1 : 0);
    else
        jsonValue(os, v);
}

/** Call fn(field, value) for every column of `o`: the job's, then the
 *  outcome's. */
template <class Fn>
void
forEachColumn(const JobOutcome &o, Fn &&fn)
{
    forEachField(kJobFields, o.job, fn);
    forEachField(kOutcomeFields, o, fn);
}

void
fillOutcome(JobOutcome &out, const core::CharacterizationReport &report)
{
    out.verified = report.verified;
    out.messages = report.volume.messageCount;
    out.totalBytes = report.volume.totalBytes;
    out.latencyMean = report.network.latencyMean;
    out.latencyMax = report.network.latencyMax;
    out.contentionMean = report.network.contentionMean;
    out.makespan = report.network.makespan;
    out.avgChannelUtilization = report.network.avgChannelUtilization;
    out.maxChannelUtilization = report.network.maxChannelUtilization;
    if (report.temporalAggregate.fit.dist)
        out.temporalFit = report.temporalAggregate.fit.dist->name();
    out.spatialPattern = stats::toString(report.spatialAggregate.pattern);
}

void
fillRankActivity(JobOutcome &out, const core::RankActivitySummary &ra)
{
    out.skewMaxUs = ra.maxAbsSkewUs;
    if (!ra.ranks.empty()) {
        double sum = 0.0;
        for (const core::RankActivityRow &row : ra.ranks)
            sum += row.idleFraction;
        out.idleFractionMean = sum / static_cast<double>(ra.ranks.size());
    }
    out.idleWaves = ra.waves.size();
    for (const core::IdleWave &wave : ra.waves)
        out.waveSpeedMax = std::max(out.waveSpeedMax,
                                    wave.speedRanksPerUs);
}

void
fillLinkStats(JobOutcome &out, const core::LinkWeatherSummary &lw)
{
    out.maxLinkUtil = lw.maxUtilization;
    out.linkGini = lw.gini;
    out.hotspotCount = static_cast<std::uint64_t>(lw.hotspotCount);
    out.congestionOnsetLoad = lw.congestionOnsetLoad;
}

/**
 * Close the loop for one job: how well its fitted model replays it.
 * The replay runs under the job's watchdog, so the job's deadline and
 * shutdown cancellation reach it too.
 */
void
fillSynthetic(JobOutcome &out, const core::CharacterizationReport &report,
              const desim::WatchdogConfig &watchdog)
{
    const core::ModelValidation v =
        core::validateReportModel(report, {}, watchdog);
    out.synthLatencyErr = v.latencyError;
    out.synthTemporalKs = v.fidelity.temporalKs;
    out.synthSpatialKs = v.fidelity.spatialKs;
    out.synthVolumeKs = v.fidelity.volumeKs;
}

/**
 * Fault columns of a faulted job, from the run's resilience section:
 * the application run (and, for a message-passing app, its trace
 * replay) only. The --synthetic model replay is fault-free.
 */
void
fillFaults(JobOutcome &out, const core::ResilienceSummary &rs)
{
    out.droppedPackets = rs.droppedPackets;
    out.corruptedPackets = rs.corruptedPackets;
    out.linkDrops = rs.linkDrops;
    out.retransmits = rs.retransmits;
    out.deliveryFailures = rs.deliveryFailures;
    out.reroutedPackets = rs.reroutedPackets;
    out.rerouteExtraHops = rs.rerouteExtraHops;
}

mesh::MeshConfig
meshOfJob(const SweepJob &job)
{
    mesh::MeshConfig cfg;
    cfg.width = job.width;
    cfg.height = job.height;
    if (job.torus) {
        cfg.topology = mesh::Topology::Torus;
        cfg.virtualChannels = job.vcs < 2 ? 2 : job.vcs;
    } else {
        cfg.virtualChannels = job.vcs;
    }
    // The load factor models a network that is `load` times slower
    // relative to the computation: both the per-flit serialization
    // time and the per-hop router delay stretch, raising the
    // effective offered load (cf. the F-LS load sweep figure).
    cfg.flitTime *= job.load;
    cfg.routerDelay *= job.load;
    return cfg;
}

} // namespace

JobOutcome
SweepEngine::runJob(const SweepJob &job, obs::MetricsRegistry &registry,
                    const std::atomic<bool> *cancel)
{
    JobOutcome out;
    out.job = job;

    // Per-job isolation: this thread's ambient hooks point at sinks
    // owned by this frame for exactly the duration of the run.
    obs::RankActivityTracker activity;
    obs::LinkStatsTracker links;
    obs::ScopedObservability obsScope{&registry, nullptr, nullptr,
                                      job.rankActivity ? &activity
                                                       : nullptr,
                                      job.linkStats ? &links : nullptr};
    core::DiagnosticSink diagSink;
    core::ScopedDiagnostics diagScope{&diagSink};

    try {
        std::optional<fault::FaultInjector> injector;
        if (!job.faultPlan.empty()) {
            fault::FaultPlan plan = fault::FaultPlan::parse(job.faultPlan);
            // The seed dimension overrides the plan's own seed; seed 0
            // means "use the plan's".
            if (job.seed != 0)
                plan.setSeed(job.seed);
            injector.emplace(plan);
        }

        std::unique_ptr<apps::SharedMemoryApp> app =
            apps::makeSharedMemoryApp(job.app);
        std::unique_ptr<apps::MessagePassingApp> mpApp =
            app ? nullptr : apps::makeMessagePassingApp(job.app);
        if (!app && !mpApp) {
            throw core::CCharError(core::StatusCode::UsageError,
                                   "unknown application '" + job.app +
                                       "'");
        }
        core::RunSpec spec;
        spec.sharedMemoryApp = app.get();
        spec.messagePassingApp = mpApp.get();
        spec.application = job.app;
        spec.machine.mesh = meshOfJob(job);
        spec.mp.mesh = spec.machine.mesh;
        spec.faults = injector ? &*injector : nullptr;
        // The watchdog doubles as the external-cancellation port: the
        // deadline monitor and the shutdown path flip `cancel`, and
        // the next periodic tick throws a cancelled WatchdogError out
        // of the run.
        spec.watchdog.cancelFlag = cancel;

        core::CharacterizationReport report =
            core::runCharacterization(spec, core::PipelineOptions{})
                .report;
        fillOutcome(out, report);
        if (job.synthetic)
            fillSynthetic(out, report, spec.watchdog);
        if (job.rankActivity)
            fillRankActivity(out, report.rankActivity);
        if (job.linkStats)
            fillLinkStats(out, report.linkStats);
        if (injector)
            fillFaults(out, report.resilience);
    } catch (const core::CCharError &e) {
        out.status = core::toString(e.status().code());
        out.error = e.what();
    } catch (const desim::WatchdogError &e) {
        out.status = core::toString(core::StatusCode::WatchdogTrip);
        out.error = e.what();
        // The orchestrator reclassifies a cancelled trip (deadline vs
        // shutdown); a genuine livelock keeps watchdog-trip.
        out.cancelled = e.cancelled();
    } catch (const std::exception &e) {
        out.status = core::toString(core::StatusCode::SimError);
        out.error = e.what();
    }

    out.diagWarnings = diagSink.warnings();
    out.diagErrors = diagSink.errors();
    return out;
}

SweepResult
SweepEngine::run(const SweepRunOptions &opts)
{
    using Clock = std::chrono::steady_clock;

    std::vector<SweepJob> jobs = spec_.expand();
    const std::uint64_t matrixHash = specHash(jobs);

    SweepResult result;
    result.outcomes.resize(jobs.size());
    std::vector<std::unique_ptr<obs::MetricsRegistry>> registries(
        jobs.size());
    std::vector<char> completed(jobs.size(), 0);

    // Every slot starts as "interrupted, never started": a graceful
    // shutdown leaves unclaimed slots exactly in this state, and every
    // job that does run (or is resumed) overwrites its slot.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        result.outcomes[i].job = jobs[i];
        result.outcomes[i].status =
            core::toString(core::StatusCode::Interrupted);
        result.outcomes[i].error = "not started before shutdown";
        result.outcomes[i].attempts = 0;
    }

    // Resume prefill: journaled jobs keep their recorded outcome and
    // a registry rebuilt from the journal, and are never rerun.
    if (!opts.resumePath.empty()) {
        JournalContents journal = loadJournalFile(opts.resumePath);
        if (journal.specHash != matrixHash ||
            journal.jobs != jobs.size()) {
            throw core::CCharError(
                core::StatusCode::UsageError,
                "sweep: journal '" + opts.resumePath +
                    "' does not match this sweep spec (different "
                    "matrix?)");
        }
        for (const JournalRecord &record : journal.records) {
            std::size_t i = record.outcome.job.index;
            if (i >= jobs.size() || jobHash(jobs[i]) != record.hash) {
                throw core::CCharError(
                    core::StatusCode::UsageError,
                    "sweep: journal '" + opts.resumePath +
                        "' holds a record that does not match the "
                        "job at its index");
            }
            JobOutcome outcome = record.outcome;
            outcome.job = jobs[i];
            result.outcomes[i] = std::move(outcome);
            auto reg = std::make_unique<obs::MetricsRegistry>();
            restoreRegistry(record, *reg);
            registries[i] = std::move(reg);
            if (!completed[i]) {
                completed[i] = 1;
                ++result.resumedJobs;
            }
        }

        // Resuming into a different journal file replays the resumed
        // records first, so the new journal is complete on its own.
        if (!opts.journalPath.empty() &&
            opts.journalPath != opts.resumePath) {
            JournalWriter writer{opts.journalPath, matrixHash,
                                 jobs.size(), /*append=*/false};
            for (const JournalRecord &record : journal.records)
                writer.append(record);
        }
    }

    std::unique_ptr<JournalWriter> journal;
    {
        std::string journalPath = opts.journalPath;
        if (journalPath.empty())
            journalPath = opts.resumePath;
        if (!journalPath.empty()) {
            bool append = !opts.resumePath.empty();
            journal = std::make_unique<JournalWriter>(
                journalPath, matrixHash, jobs.size(), append);
        }
    }
    // A journal I/O failure mid-run (disk full...) must not take the
    // sweep down: journaling stops with a warning and the run keeps
    // its in-memory results.
    std::atomic<bool> journalBroken{false};

    std::size_t pool =
        opts.workers < 1 ? 1 : static_cast<std::size_t>(opts.workers);
    if (pool > jobs.size() && !jobs.empty())
        pool = jobs.size();

    struct WorkerClock
    {
        double busySeconds = 0.0;
        std::uint64_t jobsCompleted = 0;
    };
    std::vector<WorkerClock> clocks(pool);

    /**
     * One per worker: the channel between a running job and the
     * monitor thread. `kind` records who requested the cancellation
     * (1 = deadline, 2 = shutdown) and is claimed by compare-exchange
     * so the two causes cannot race each other.
     */
    struct Lane
    {
        std::atomic<bool> active{false};
        std::atomic<bool> cancel{false};
        std::atomic<int> kind{0};
        std::atomic<long long> deadlineAtMs{0};
    };
    std::vector<Lane> lanes(pool);

    Clock::time_point sweepStart = Clock::now();
    auto msSinceStart = [sweepStart] {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - sweepStart)
                .count());
    };
    auto shutdownLevel = [&opts] {
        return opts.shutdown == nullptr
                   ? 0
                   : opts.shutdown->load(std::memory_order_relaxed);
    };
    const bool wantCancel =
        opts.policy.jobTimeoutSec > 0.0 || opts.shutdown != nullptr;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{result.resumedJobs};
    auto drain = [&](std::size_t worker) {
        Lane &lane = lanes[worker];
        for (;;) {
            // Graceful shutdown step 1: a signalled run stops
            // claiming; in-flight jobs elsewhere drain (or are
            // cancelled by the monitor on the second signal).
            if (shutdownLevel() > 0)
                return;
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            if (completed[i])
                continue; // resumed from the journal
            Clock::time_point t0 = Clock::now();

            JobOutcome out;
            std::unique_ptr<obs::MetricsRegistry> reg;
            int attempt = 0;
            bool interrupted = false;
            for (;;) {
                ++attempt;
                // Fresh registry per attempt: a half-run failed
                // attempt must not leak metrics into the final
                // result.
                reg = std::make_unique<obs::MetricsRegistry>();
                lane.kind.store(0, std::memory_order_relaxed);
                lane.cancel.store(false, std::memory_order_relaxed);
                lane.deadlineAtMs.store(
                    opts.policy.jobTimeoutSec > 0.0
                        ? msSinceStart() +
                              static_cast<long long>(
                                  opts.policy.jobTimeoutSec * 1000.0)
                        : 0,
                    std::memory_order_relaxed);
                lane.active.store(true, std::memory_order_release);
                out = runJob(jobs[i], *reg,
                             wantCancel ? &lane.cancel : nullptr);
                lane.active.store(false, std::memory_order_release);

                if (out.cancelled) {
                    int kind = lane.kind.load(std::memory_order_acquire);
                    if (kind == 2 ||
                        (kind == 0 && shutdownLevel() > 0)) {
                        out.status = core::toString(
                            core::StatusCode::Interrupted);
                        out.error = "interrupted by shutdown signal "
                                    "before completion";
                        interrupted = true;
                    } else {
                        out.status = core::toString(
                            core::StatusCode::DeadlineExceeded);
                        std::ostringstream err;
                        err << "wall-clock deadline exceeded "
                               "(--job-timeout "
                            << opts.policy.jobTimeoutSec << "s)";
                        out.error = err.str();
                    }
                }
                if (interrupted || out.ok())
                    break;
                if (!isTransientStatus(out.status) ||
                    attempt > opts.policy.maxRetries)
                    break;

                // Exponential backoff before the retry; a shutdown
                // signal aborts the wait (and the job).
                double delayMs =
                    backoffDelayMs(opts.policy, attempt + 1);
                Clock::time_point until =
                    Clock::now() +
                    std::chrono::milliseconds(
                        static_cast<long long>(delayMs));
                while (Clock::now() < until && shutdownLevel() == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                }
                if (shutdownLevel() > 0) {
                    out.status =
                        core::toString(core::StatusCode::Interrupted);
                    out.error =
                        "interrupted during retry backoff";
                    interrupted = true;
                    break;
                }
            }

            out.attempts = attempt;
            if (interrupted) {
                // Not journaled and no registry kept: a resumed run
                // reruns this job from scratch.
                out.quarantined = false;
                result.outcomes[i] = std::move(out);
                done.fetch_add(1, std::memory_order_release);
                continue;
            }

            out.quarantined = !out.ok();
            if (journal && !journalBroken.load(std::memory_order_acquire)) {
                try {
                    journal->append(out, *reg);
                } catch (const core::CCharError &e) {
                    if (!journalBroken.exchange(true)) {
                        std::cerr << "sweep: journaling disabled: "
                                  << e.what() << "\n";
                    }
                }
            }
            result.outcomes[i] = std::move(out);
            registries[i] = std::move(reg);
            clocks[worker].busySeconds +=
                std::chrono::duration<double>(Clock::now() - t0).count();
            ++clocks[worker].jobsCompleted;
            done.fetch_add(1, std::memory_order_release);
        }
    };

    // The monitor enforces per-job wall-clock deadlines and hard
    // cancellation on the second shutdown signal. A narrow benign
    // race exists by design: if a worker finishes an attempt and
    // starts the next one between the monitor's active-check and its
    // kind-claim, the fresh attempt can absorb a cancellation meant
    // for the previous one — it is classified transient and retried,
    // never lost.
    std::atomic<bool> monitorStop{false};
    std::thread monitor;
    if (wantCancel) {
        monitor = std::thread([&] {
            while (!monitorStop.load(std::memory_order_acquire)) {
                long long nowMs = msSinceStart();
                int level = shutdownLevel();
                for (Lane &lane : lanes) {
                    if (!lane.active.load(std::memory_order_acquire))
                        continue;
                    int expected = 0;
                    if (level >= 2) {
                        if (lane.kind.compare_exchange_strong(
                                expected, 2,
                                std::memory_order_acq_rel))
                            lane.cancel.store(
                                true, std::memory_order_release);
                        continue;
                    }
                    long long deadline = lane.deadlineAtMs.load(
                        std::memory_order_relaxed);
                    if (deadline > 0 && nowMs >= deadline) {
                        if (lane.kind.compare_exchange_strong(
                                expected, 1,
                                std::memory_order_acq_rel))
                            lane.cancel.store(
                                true, std::memory_order_release);
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        });
    }

    // The reporter is pure stderr decoration: it never touches the
    // outcomes, so it cannot perturb the deterministic merge below.
    std::atomic<bool> reporterStop{false};
    std::thread reporter;
    if (opts.progress && !jobs.empty()) {
        reporter = std::thread([&] {
            for (;;) {
                std::size_t d = done.load(std::memory_order_acquire);
                double elapsed = std::chrono::duration<double>(
                                     Clock::now() - sweepStart)
                                     .count();
                std::ostringstream line;
                line << "\rsweep: " << d << "/" << jobs.size()
                     << " jobs";
                if (d > 0 && d < jobs.size()) {
                    double eta = elapsed *
                                 static_cast<double>(jobs.size() - d) /
                                 static_cast<double>(d);
                    line.precision(1);
                    line << ", eta " << std::fixed << eta << "s";
                }
                line << "   ";
                std::cerr << line.str() << std::flush;
                if (reporterStop.load(std::memory_order_acquire))
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
            std::cerr << "\n";
        });
    }

    if (pool <= 1) {
        drain(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (std::size_t i = 0; i < pool; ++i)
            threads.emplace_back(drain, i);
        for (std::thread &t : threads)
            t.join();
    }

    double wallSeconds =
        std::chrono::duration<double>(Clock::now() - sweepStart).count();

    if (monitor.joinable()) {
        monitorStop.store(true, std::memory_order_release);
        monitor.join();
    }
    if (reporter.joinable()) {
        reporterStop.store(true, std::memory_order_release);
        reporter.join();
    }

    for (const JobOutcome &o : result.outcomes) {
        if (o.status == core::toString(core::StatusCode::Interrupted)) {
            result.interrupted = true;
            break;
        }
    }

    result.workerStats.resize(pool);
    for (std::size_t w = 0; w < pool; ++w) {
        result.workerStats[w].busyFraction =
            wallSeconds > 0.0
                ? std::min(1.0, clocks[w].busySeconds / wallSeconds)
                : 0.0;
        result.workerStats[w].jobsCompleted = clocks[w].jobsCompleted;
    }

    // Merge strictly in job order: the fold is associative but the
    // interned-name order and float accumulation are not, so the order
    // must not depend on which worker finished first.
    result.metrics = std::make_unique<obs::MetricsRegistry>();
    for (const auto &reg : registries) {
        if (reg)
            result.metrics->mergeFrom(*reg);
    }

    // Publish the worker view, then zero the whole wall-clock family:
    // the keys document the schema while the values stay deterministic
    // (workerStats carries the measurements to the CLI).
    if (!result.workerStats.empty()) {
        double bfMin = 1.0, bfMax = 0.0, bfSum = 0.0;
        std::uint64_t jMin = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t jMax = 0, jSum = 0;
        for (const WorkerStat &ws : result.workerStats) {
            bfMin = std::min(bfMin, ws.busyFraction);
            bfMax = std::max(bfMax, ws.busyFraction);
            bfSum += ws.busyFraction;
            jMin = std::min(jMin, ws.jobsCompleted);
            jMax = std::max(jMax, ws.jobsCompleted);
            jSum += ws.jobsCompleted;
        }
        double n = static_cast<double>(result.workerStats.size());
        result.metrics->gauge("sweep.workers").set(n);
        result.metrics->gauge("sweep.worker.busy_fraction_mean")
            .set(bfSum / n);
        result.metrics->gauge("sweep.worker.busy_fraction_min")
            .set(bfMin);
        result.metrics->gauge("sweep.worker.busy_fraction_max")
            .set(bfMax);
        result.metrics->gauge("sweep.worker.jobs_mean")
            .set(static_cast<double>(jSum) / n);
        result.metrics->gauge("sweep.worker.jobs_min")
            .set(static_cast<double>(jMin));
        result.metrics->gauge("sweep.worker.jobs_max")
            .set(static_cast<double>(jMax));
    }
    // Resumed-job count depends on where the previous run stopped, so
    // it joins the zeroed wall-clock family (real value: stderr only).
    result.metrics->gauge("sweep.resumed_jobs")
        .set(static_cast<double>(result.resumedJobs));
    for (const char *name : kWallClockGauges)
        result.metrics->gauge(name).set(0.0);

    // Orchestration counters ARE deterministic: attempts are a
    // journaled property of each outcome, identical across -j and
    // across an interrupted-then-resumed split.
    result.metrics->counter("sweep.retries")
        .add(static_cast<std::uint64_t>(result.retries()));
    result.metrics->counter("sweep.quarantined")
        .add(static_cast<std::uint64_t>(result.quarantinedCount()));
    return result;
}

std::size_t
SweepResult::failures() const
{
    std::size_t n = 0;
    for (const JobOutcome &o : outcomes)
        n += o.ok() ? 0 : 1;
    return n;
}

std::size_t
SweepResult::retries() const
{
    std::size_t n = 0;
    for (const JobOutcome &o : outcomes)
        n += o.attempts > 1 ? static_cast<std::size_t>(o.attempts - 1)
                            : 0;
    return n;
}

std::size_t
SweepResult::quarantinedCount() const
{
    std::size_t n = 0;
    for (const JobOutcome &o : outcomes)
        n += o.quarantined ? 1 : 0;
    return n;
}

std::size_t
SweepResult::interruptedCount() const
{
    std::size_t n = 0;
    for (const JobOutcome &o : outcomes)
        n += o.status == core::toString(core::StatusCode::Interrupted)
                 ? 1
                 : 0;
    return n;
}

void
SweepResult::writeJson(std::ostream &os) const
{
    os << "{\"jobs\":[";
    bool first = true;
    for (const JobOutcome &o : outcomes) {
        if (!first)
            os << ",";
        first = false;
        char open = '{';
        forEachColumn(o, [&](const auto &field, const auto &value) {
            os << open;
            open = ',';
            writeJsonString(os, field.name);
            os << ":";
            jsonValue(os, value);
        });
        os << "}";
    }
    os << "],\"failures\":" << failures();
    // Degraded-results section: present only when at least one job
    // exhausted its options, so healthy reports keep their schema.
    if (quarantinedCount() > 0) {
        os << ",\"degraded\":[";
        bool firstDegraded = true;
        for (const JobOutcome &o : outcomes) {
            if (!o.quarantined)
                continue;
            if (!firstDegraded)
                os << ",";
            firstDegraded = false;
            os << "{\"index\":" << o.job.index << ",\"app\":";
            writeJsonString(os, o.job.app);
            os << ",\"label\":";
            writeJsonString(os, o.job.label());
            os << ",\"status\":";
            writeJsonString(os, o.status);
            os << ",\"attempts\":" << o.attempts << ",\"error\":";
            writeJsonString(os, o.error);
            os << "}";
        }
        os << "]";
    }
    os << ",\"metrics\":";
    if (metrics)
        metrics->writeJson(os);
    else
        os << "null";
    os << "}\n";
}

void
SweepResult::writeCsv(std::ostream &os) const
{
    // Header: the column names, visited through a default outcome.
    const char *sep = "";
    forEachColumn(JobOutcome{}, [&](const auto &field, const auto &) {
        if (field.inCsv) {
            os << sep << field.name;
            sep = ",";
        }
    });
    os << "\n";
    for (const JobOutcome &o : outcomes) {
        sep = "";
        forEachColumn(o, [&](const auto &field, const auto &value) {
            if (field.inCsv) {
                os << sep;
                sep = ",";
                csvValue(os, value);
            }
        });
        os << "\n";
    }
}

} // namespace cchar::sweep
