/**
 * @file
 * The end-to-end characterization pipeline — the paper's methodology.
 *
 * Dynamic strategy: execute a shared-memory application on the
 * simulated CC-NUMA machine (execution-driven, with network feedback),
 * log every coherence/synchronization message the 2-D mesh carries,
 * and run the statistical analysis on the log.
 *
 * Static strategy: execute a message-passing application on the
 * SP2-model runtime with application-level tracing, replay the trace
 * into the same 2-D mesh simulator, and analyze the replayed log.
 *
 * runCharacterization is the one run path: the CLI subcommands, the
 * sweep engine and CharacterizationPipeline::runDynamic/runStatic all
 * describe their run as a RunSpec and hand it over.
 */

#ifndef CCHAR_CORE_PIPELINE_HH
#define CCHAR_CORE_PIPELINE_HH

#include <functional>
#include <string>

#include "analyzers.hh"
#include "apps/app.hh"
#include "replay.hh"
#include "report.hh"
#include "synthetic.hh"

namespace cchar::core {

/** Analysis knobs of the pipeline. */
struct PipelineOptions
{
    stats::DistributionFitter fitter{};
    stats::SpatialClassifier classifier{};
    /** Minimum messages for a per-source temporal fit. */
    std::size_t minSamplesPerSource = 8;
    /**
     * Optional windowed telemetry sink. When set, the standard
     * network series (see attachNetworkTelemetry) are captured every
     * samplePeriodUs of simulated time during the run — for the
     * static strategy, during the replay phase; a synthetic run is not
     * sampled. Must outlive the run.
     */
    obs::WindowedSampler *sampler = nullptr;
    double samplePeriodUs = 50.0;
    /**
     * Run the phase detector and characterize each detected phase
     * (report.phases). Off by default: reports analyzed without it
     * render byte-identically to earlier versions.
     */
    bool detectPhases = false;
    /** Phase-detection parameters (used when detectPhases is set). */
    PhaseAnalysisConfig phase{};
    /** Network-weather parameters (used when link stats are tracked). */
    LinkWeatherConfig linkWeather{};
};

/**
 * One characterization run: the traffic source, the machine it runs
 * on, and its fault and watchdog setup. Exactly one source is set;
 * the pointed-to objects must outlive the run.
 */
struct RunSpec
{
    /** Dynamic strategy: execute on the CC-NUMA `machine`. */
    apps::SharedMemoryApp *sharedMemoryApp = nullptr;
    /**
     * Static strategy: execute on the MP runtime `mp` with tracing,
     * then replay the trace into mp.mesh.
     */
    apps::MessagePassingApp *messagePassingApp = nullptr;
    /** Replay a loaded trace into mp.mesh (the report stays unverified). */
    const trace::Trace *trace = nullptr;
    /** Generate traffic from a model on its own mesh, with `synth`. */
    const SyntheticModel *model = nullptr;

    /** The report's application label. */
    std::string application;
    ccnuma::MachineConfig machine{};
    mp::MpConfig mp{};
    SynthRunOptions synth{};
    /** Receives the trace an MP run collects (may be null). */
    trace::Trace *traceOut = nullptr;
    /**
     * Fault oracle of the application run and the replay (non-owning;
     * may be null). When set, the report's resilience section
     * accounts for it.
     */
    fault::FaultInjector *faults = nullptr;
    /**
     * No-progress watchdog of the application run, the replay and the
     * model run, armed by the rule of armRunWatchdog: iff `faults` or
     * watchdog.cancelFlag is set. Without faults only the cancel flag
     * (or the sim-time horizon) can trip it.
     */
    desim::WatchdogConfig watchdog{};
    /** Called with the application's simulator before launch. */
    std::function<void(desim::Simulator &)> onAppSimulator;
};

/** A characterization and the network run it was analyzed from. */
struct RunResult
{
    CharacterizationReport report;
    /** The application run, the replay or the synthetic run. */
    DriveResult drive;
};

/**
 * Run `spec` and characterize its traffic. The ambient rank-activity
 * and link-stats trackers (obs::rankActivity(), obs::linkStats()), when
 * installed, are finished, analyzed into the report and published to
 * the ambient metrics registry; a static run records rank activity
 * during the MP execution and link stats during the replay only.
 *
 * @throws desim::WatchdogError when the watchdog trips, and whatever
 *         the simulation throws (deadlock, delivery failure).
 */
RunResult runCharacterization(const RunSpec &spec,
                              const PipelineOptions &opts);

/** Runs applications and produces characterization reports. */
class CharacterizationPipeline
{
  public:
    CharacterizationPipeline() : opts_() {}

    explicit CharacterizationPipeline(PipelineOptions opts)
        : opts_(std::move(opts))
    {}

    /**
     * Dynamic strategy: run `app` on a CC-NUMA machine of the given
     * configuration and characterize the generated traffic.
     */
    CharacterizationReport
    runDynamic(apps::SharedMemoryApp &app,
               const ccnuma::MachineConfig &cfg) const;

    /**
     * Static strategy: run `app` on the MP runtime with tracing,
     * replay the trace into the mesh, and characterize the replayed
     * traffic.
     *
     * @param trace_out Optional sink for the collected trace.
     */
    CharacterizationReport
    runStatic(apps::MessagePassingApp &app, const mp::MpConfig &cfg,
              trace::Trace *trace_out = nullptr) const;

    /** Shared analysis step on an existing network log. */
    CharacterizationReport
    analyze(const trace::TrafficLog &log, const mesh::MeshConfig &mesh,
            const std::string &application, Strategy strategy,
            const NetworkSummary &network) const;

  private:
    PipelineOptions opts_;
};

} // namespace cchar::core

#endif // CCHAR_CORE_PIPELINE_HH
