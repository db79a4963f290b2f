/**
 * @file
 * Deterministic parallel sweep engine.
 *
 * Executes every job of a SweepSpec matrix — each one a complete,
 * isolated characterization run — across a pool of worker threads,
 * and merges the results in canonical job order. The guarantee the
 * rest of the tool chain builds on:
 *
 *     the aggregate report is byte-identical for any worker count.
 *
 * Three properties carry it:
 *
 *  1. Job isolation. Every mutable ambient hook the simulation layers
 *     consult — the obs sinks (obs/obs.hh) and the diagnostic sink
 *     (core/status.hh) — is thread-local, and each job installs its
 *     own instances for the duration of the run. A job's simulator,
 *     machine, injector and logs are all locals of its runner.
 *  2. Deterministic jobs. A simulation result is a pure function of
 *     the job parameters; nothing wall-clock-derived enters a job
 *     outcome (the one wall-derived gauge the kernel publishes is
 *     zeroed in the merged registry, see engine.cc).
 *  3. Ordered merge. Workers write outcomes into a pre-sized slot
 *     array indexed by job index; merging walks that array in index
 *     order after all workers join. Scheduling affects only who
 *     computed a slot, never what it holds or when it is folded.
 */

#ifndef CCHAR_SWEEP_ENGINE_HH
#define CCHAR_SWEEP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "obs/registry.hh"
#include "spec.hh"

namespace cchar::sweep {

/** Deterministic result of one sweep job. */
struct JobOutcome
{
    SweepJob job;
    /** "ok" or a StatusCode tag ("sim-error", "watchdog-trip"...). */
    std::string status = "ok";
    /** Failure detail when status != "ok". */
    std::string error;
    /** Application self-verification result. */
    bool verified = false;

    // Summary attributes (sim-time only; all deterministic).
    std::uint64_t messages = 0;
    double totalBytes = 0.0;
    double latencyMean = 0.0;
    double latencyMax = 0.0;
    double contentionMean = 0.0;
    double makespan = 0.0;
    double avgChannelUtilization = 0.0;
    double maxChannelUtilization = 0.0;
    /** Fitted inter-arrival family of the aggregate ("-" if none). */
    std::string temporalFit = "-";
    std::string spatialPattern = "-";

    // Fault accounting (zero on healthy runs).
    std::uint64_t droppedPackets = 0;
    std::uint64_t corruptedPackets = 0;
    std::uint64_t linkDrops = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t deliveryFailures = 0;
    std::uint64_t reroutedPackets = 0;
    std::uint64_t rerouteExtraHops = 0;

    // Diagnostics emitted by this job's thread-local sink.
    std::uint64_t diagWarnings = 0;
    std::uint64_t diagErrors = 0;

    // Desynchronization aggregates (all zero unless the job ran with
    // rank-activity tracking; columns are always present so the report
    // schema does not depend on the flag).
    double skewMaxUs = 0.0;
    double idleFractionMean = 0.0;
    std::uint64_t idleWaves = 0;
    double waveSpeedMax = 0.0;

    // Network-weather aggregates (all zero unless the job ran with
    // link-stats tracking; same always-present-columns contract).
    double maxLinkUtil = 0.0;
    double linkGini = 0.0;
    std::uint64_t hotspotCount = 0;
    double congestionOnsetLoad = 0.0;

    // Synthetic-replay fidelity (all zero unless the job ran with the
    // synthetic flag; same always-present-columns contract). The job's
    // fitted model is replayed through the network and compared with
    // the original run: signed relative latency error plus the
    // per-attribute KS distances of the re-characterization.
    double synthLatencyErr = 0.0;
    double synthTemporalKs = 0.0;
    double synthSpatialKs = 0.0;
    double synthVolumeKs = 0.0;

    // Orchestration accounting (always-present columns). attempts is
    // 0 for a job an interrupted run never started.
    int attempts = 1;
    /** Failed after the retry budget; see the "degraded" section. */
    bool quarantined = false;

    /**
     * Transient marker, never serialized: the run was stopped through
     * the watchdog's external cancel flag (deadline or shutdown) and
     * the caller must reclassify status by the cancellation kind.
     */
    bool cancelled = false;

    bool ok() const { return status == "ok"; }
};

/**
 * One column of a sweep record: its name in every format, the member
 * that holds it, and whether the CSV carries it. The member pointer's
 * type is the column's kind (u64, int, double, string or bool); each
 * format renders and parses by kind (see SweepResult::writeJson and
 * writeCsv, and the journal in journal.cc).
 */
template <class Record>
struct Field
{
    const char *name;
    std::variant<std::uint64_t Record::*, int Record::*, double Record::*,
                 std::string Record::*, bool Record::*>
        member;
    /** False: JSON and journal only. */
    bool inCsv = true;
};

/** SweepJob columns, in report order. */
inline constexpr Field<SweepJob> kJobFields[] = {
    {"index", &SweepJob::index},
    {"app", &SweepJob::app},
    {"procs", &SweepJob::procs},
    {"width", &SweepJob::width},
    {"height", &SweepJob::height},
    {"torus", &SweepJob::torus},
    {"vcs", &SweepJob::vcs},
    {"load", &SweepJob::load},
    {"seed", &SweepJob::seed},
    {"fault_plan", &SweepJob::faultPlan},
};

/**
 * JobOutcome columns, in report order. The last kOrchestrationFields
 * (attempts, quarantined) are the orchestration columns, which a
 * journal record writes first.
 */
inline constexpr Field<JobOutcome> kOutcomeFields[] = {
    {"status", &JobOutcome::status},
    {"error", &JobOutcome::error, /*inCsv=*/false},
    {"verified", &JobOutcome::verified},
    {"messages", &JobOutcome::messages},
    {"total_bytes", &JobOutcome::totalBytes},
    {"latency_mean_us", &JobOutcome::latencyMean},
    {"latency_max_us", &JobOutcome::latencyMax},
    {"contention_mean_us", &JobOutcome::contentionMean},
    {"makespan_us", &JobOutcome::makespan},
    {"avg_channel_utilization", &JobOutcome::avgChannelUtilization},
    {"max_channel_utilization", &JobOutcome::maxChannelUtilization},
    {"temporal_fit", &JobOutcome::temporalFit},
    {"spatial_pattern", &JobOutcome::spatialPattern},
    {"dropped_packets", &JobOutcome::droppedPackets},
    {"corrupted_packets", &JobOutcome::corruptedPackets},
    {"link_drops", &JobOutcome::linkDrops},
    {"retransmits", &JobOutcome::retransmits},
    {"delivery_failures", &JobOutcome::deliveryFailures},
    {"rerouted_packets", &JobOutcome::reroutedPackets},
    {"reroute_extra_hops", &JobOutcome::rerouteExtraHops},
    {"diag_warnings", &JobOutcome::diagWarnings},
    {"diag_errors", &JobOutcome::diagErrors},
    {"skew_max_us", &JobOutcome::skewMaxUs},
    {"idle_fraction_mean", &JobOutcome::idleFractionMean},
    {"idle_waves", &JobOutcome::idleWaves},
    {"wave_speed_max", &JobOutcome::waveSpeedMax},
    {"max_link_util", &JobOutcome::maxLinkUtil},
    {"link_gini", &JobOutcome::linkGini},
    {"hotspot_count", &JobOutcome::hotspotCount},
    {"congestion_onset_load", &JobOutcome::congestionOnsetLoad},
    {"synth_latency_err", &JobOutcome::synthLatencyErr},
    {"synth_temporal_ks", &JobOutcome::synthTemporalKs},
    {"synth_spatial_ks", &JobOutcome::synthSpatialKs},
    {"synth_volume_ks", &JobOutcome::synthVolumeKs},
    {"attempts", &JobOutcome::attempts},
    {"quarantined", &JobOutcome::quarantined},
};
inline constexpr std::size_t kOrchestrationFields = 2;

/** Call fn(field, value) for each of `fields`, value being the member
 *  of `rec` it names (const when rec is). */
template <class Fields, class Record, class Fn>
void
forEachField(const Fields &fields, Record &rec, Fn &&fn)
{
    for (const auto &field : fields)
        std::visit([&](auto member) { fn(field, rec.*member); },
                   field.member);
}

/**
 * Wall-clock view of one worker thread: fraction of the sweep's wall
 * time it spent inside jobs, and how many jobs it drained. Scheduling-
 * dependent by nature, so it never enters the serialized report — the
 * matching sweep.worker.* gauges are zeroed after the merge, and the
 * real values only reach stderr (see cmdSweep).
 */
struct WorkerStat
{
    double busyFraction = 0.0;
    std::uint64_t jobsCompleted = 0;
};

/** Aggregate result of a sweep run, merged in job order. */
struct SweepResult
{
    std::vector<JobOutcome> outcomes;
    /** Per-job registries folded together (see MetricsRegistry::mergeFrom). */
    std::unique_ptr<obs::MetricsRegistry> metrics;
    /** One entry per worker of the pool that ran the sweep. */
    std::vector<WorkerStat> workerStats;

    /** Jobs prefilled from a --resume journal (wall-clock view: the
     *  value depends on where the previous run stopped, so it only
     *  reaches stderr and the zeroed sweep.resumed_jobs gauge). */
    std::size_t resumedJobs = 0;
    /** A shutdown signal cut the run short; at least one job carries
     *  status "interrupted" and the journal (if any) is resumable. */
    bool interrupted = false;

    std::size_t failures() const;
    /** Sum of (attempts - 1) over all run jobs (deterministic). */
    std::size_t retries() const;
    /** Jobs that exhausted the retry budget and were quarantined. */
    std::size_t quarantinedCount() const;
    /** Jobs an interrupted run never completed. */
    std::size_t interruptedCount() const;

    /** Deterministic JSON report (jobs array + merged metrics). */
    void writeJson(std::ostream &os) const;

    /** One CSV row per job (RFC 4180 quoting). */
    void writeCsv(std::ostream &os) const;
};

/** Retry/deadline policy of a sweep run (see policy.hh helpers). */
struct JobPolicy
{
    /** Wall-clock per-job deadline in seconds; 0 disables it. */
    double jobTimeoutSec = 0.0;
    /** Extra attempts granted to transiently-failing jobs. */
    int maxRetries = 0;
    /** Base retry backoff; doubles per attempt (capped). */
    double backoffMs = 100.0;
};

/** Orchestration options of SweepEngine::run. */
struct SweepRunOptions
{
    /** Worker threads (clamped to [1, jobs]). */
    int workers = 1;
    /** Emit a live done/total + ETA line on stderr. */
    bool progress = false;
    JobPolicy policy{};
    /** Write a job journal here ("" = none). Fresh runs truncate. */
    std::string journalPath{};
    /** Resume from this journal ("" = fresh run). Journaled jobs are
     *  skipped and their recorded results merged; the same file keeps
     *  receiving the newly completed jobs. */
    std::string resumePath{};
    /**
     * Shutdown signal counter (owned by the CLI's signal handlers;
     * may be null). 1 = stop claiming new jobs and drain in-flight
     * ones; >= 2 = also cancel in-flight jobs at the next watchdog
     * tick. Jobs cut short are marked "interrupted" and NOT
     * journaled, so a resumed run reruns them.
     */
    const std::atomic<int> *shutdown = nullptr;
};

/** Runs a sweep matrix over a worker pool. */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepSpec spec) : spec_(std::move(spec)) {}

    /**
     * Expand the matrix and run every job with full orchestration:
     * resume prefill, durable journaling, per-job wall-clock
     * deadlines, transient-failure retry with exponential backoff,
     * quarantine of persistent failures, and graceful shutdown.
     *
     * @throws core::CCharError(UsageError) for an invalid spec or a
     *         journal that does not match it; CCharError(IoError/
     *         ParseError) for an unreadable or damaged journal.
     *         Individual job failures never throw; they are recorded
     *         in the corresponding outcome.
     */
    SweepResult run(const SweepRunOptions &opts);

    /**
     * Run one job in the calling thread (used by workers and tests).
     * When `cancel` is non-null a watchdog is armed on every
     * simulation of the job and trips at its next periodic tick once
     * the flag turns true; the outcome then carries cancelled=true
     * for the caller to classify (deadline vs shutdown).
     */
    static JobOutcome runJob(const SweepJob &job,
                             obs::MetricsRegistry &registry,
                             const std::atomic<bool> *cancel = nullptr);

  private:
    SweepSpec spec_;
};

} // namespace cchar::sweep

#endif // CCHAR_SWEEP_ENGINE_HH
