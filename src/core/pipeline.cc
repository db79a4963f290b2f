#include "pipeline.hh"

#include <stdexcept>

#include "telemetry.hh"

namespace cchar::core {

namespace {

double
averageHops(const trace::TrafficLog &log)
{
    if (log.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &rec : log.records())
        sum += rec.hops;
    return sum / static_cast<double>(log.size());
}

/**
 * Execute `app` on `world` (a ccnuma::Machine or an mp::MpWorld) with
 * the caller's hook attached and, when given, the telemetry sampler.
 * The watchdog is armed iff the run has a fault injector or a cancel
 * flag. With faults, `progress` measures the run's progress; with only
 * a cancel flag the probe is the committed-event count, which advances
 * on every tick, so only cancellation can trip.
 */
template <typename World, typename App>
void
execute(desim::Simulator &sim, World &world, App &app, const RunSpec &spec,
        obs::WindowedSampler *sampler, double samplePeriodUs,
        std::function<std::uint64_t()> progress)
{
    desim::Watchdog watchdog{sim, spec.watchdog};
    if (spec.faults) {
        watchdog.setProgressProbe(std::move(progress));
        watchdog.arm();
    } else if (spec.watchdog.cancelFlag) {
        watchdog.setProgressProbe([&sim] { return sim.processedEvents(); });
        watchdog.arm();
    }
    if (sampler && samplePeriodUs > 0.0)
        attachNetworkTelemetry(sim, world.network(), *sampler, samplePeriodUs);
    if (spec.onAppSimulator)
        spec.onAppSimulator(sim);
    apps::launch(world, app);
    world.run();
}

/** Replay `trace` into `mesh` under the run's faults and watchdog. */
DriveResult
replayTrace(const trace::Trace &trace, const mesh::MeshConfig &mesh,
            const RunSpec &spec, const PipelineOptions &opts)
{
    ReplayOptions ropts;
    ropts.sampler = opts.sampler;
    ropts.samplePeriodUs = opts.samplePeriodUs;
    ropts.faults = spec.faults;
    ropts.enableWatchdog = spec.faults || spec.watchdog.cancelFlag;
    ropts.watchdog = spec.watchdog;
    // Without faults the delivered-message probe can stall legitimately
    // (bursty delivery), so only the cancel flag may trip.
    if (!spec.faults)
        ropts.watchdog.stallChecks = 1 << 30;
    return TraceReplayer::replay(trace, mesh, ropts);
}

/** Fill the report's Resilience section from the run's fault state. */
void
fillResilience(ResilienceSummary &rs, const fault::FaultInjector &injector,
               std::uint64_t retransmits, std::uint64_t deliveryFailures,
               std::uint64_t traceRecordsSkipped)
{
    rs.enabled = true;
    rs.planDescription = injector.plan().describe();
    rs.faultsPlanned = injector.plan().faults().size();
    rs.droppedPackets = injector.drops();
    rs.corruptedPackets = injector.corrupts();
    rs.linkDrops = injector.linkDrops();
    rs.routerStalls = injector.routerStalls();
    rs.retransmits = retransmits;
    rs.deliveryFailures = deliveryFailures;
    rs.traceRecordsSkipped = traceRecordsSkipped;
    rs.plannedLinkDowntimeUs = injector.plan().plannedLinkDowntimeUs();
    rs.reroutedPackets = injector.reroutes();
    rs.rerouteExtraHops = injector.rerouteExtraHops();
}

} // namespace

CharacterizationReport
CharacterizationPipeline::analyze(const trace::TrafficLog &log,
                                  const mesh::MeshConfig &mesh,
                                  const std::string &application,
                                  Strategy strategy,
                                  const NetworkSummary &network) const
{
    CharacterizationReport report;
    report.application = application;
    report.strategy = strategy;
    report.nprocs = log.nprocs();
    report.mesh = mesh;
    report.network = network;
    report.network.avgHops = averageHops(log);

    TemporalAnalyzer temporal{opts_.fitter};
    report.temporalAggregate = temporal.analyzeAggregate(log);
    report.temporalPerSource =
        temporal.analyzeAllSources(log, opts_.minSamplesPerSource);

    SpatialAnalyzer spatial{opts_.classifier};
    report.spatialPerSource = spatial.analyzeAllSources(log);
    report.spatialAggregate = spatial.analyzeAggregate(log);
    report.hopDistancePmf = SpatialAnalyzer::hopDistanceProfile(log, mesh);

    report.volume = VolumeAnalyzer{}.analyze(log);

    // Per-message-class breakdown and structured global pattern.
    for (trace::MessageKind kind :
         {trace::MessageKind::Data, trace::MessageKind::Control,
          trace::MessageKind::Sync}) {
        trace::TrafficLog sub = log.filterKind(kind);
        if (sub.empty())
            continue;
        CharacterizationReport::KindBreakdown kb;
        kb.kind = kind;
        kb.volume = VolumeAnalyzer{}.analyze(sub);
        kb.temporal = temporal.analyzeAggregate(sub);
        report.perKind.push_back(std::move(kb));
    }
    report.structured = StructuredPatternDetector{}.analyze(log);

    if (opts_.detectPhases) {
        PhaseAnalyzer phaser{opts_.phase, opts_.fitter,
                             opts_.classifier};
        report.phases = phaser.analyze(log);
    }
    return report;
}

CharacterizationReport
CharacterizationPipeline::runDynamic(apps::SharedMemoryApp &app,
                                     const ccnuma::MachineConfig &cfg) const
{
    RunSpec spec;
    spec.sharedMemoryApp = &app;
    spec.application = app.name();
    spec.machine = cfg;
    return runCharacterization(spec, opts_).report;
}

CharacterizationReport
CharacterizationPipeline::runStatic(apps::MessagePassingApp &app,
                                    const mp::MpConfig &cfg,
                                    trace::Trace *trace_out) const
{
    RunSpec spec;
    spec.messagePassingApp = &app;
    spec.application = app.name();
    spec.mp = cfg;
    spec.traceOut = trace_out;
    return runCharacterization(spec, opts_).report;
}

RunResult
runCharacterization(const RunSpec &spec, const PipelineOptions &opts)
{
    obs::RankActivityTracker *activity = obs::rankActivity();
    obs::LinkStatsTracker *links = obs::linkStats();
    const CharacterizationPipeline pipeline{opts};
    RunResult run;
    CharacterizationReport &report = run.report;
    DriveResult &drive = run.drive;

    // The analysis every source shares. It runs while the simulation
    // that fed the (already finished) trackers is still alive.
    auto characterize = [&](const mesh::MeshConfig &mesh,
                            Strategy strategy) {
        report = pipeline.analyze(drive.log, mesh, spec.application,
                                  strategy, drive.summary());
        if (activity) {
            report.rankActivity =
                RankActivityAnalyzer{}.analyze(*activity, report.phases);
        }
        if (links) {
            report.linkStats = LinkWeatherAnalyzer{opts.linkWeather}.analyze(
                *links, mesh, report.phases);
        }
    };
    auto finishTrackers = [&](desim::SimTime end) {
        if (activity)
            activity->finish(end);
        if (links)
            links->finish(end);
    };

    if (spec.sharedMemoryApp) {
        ccnuma::MachineConfig cfg = spec.machine;
        if (spec.faults)
            cfg.mesh.faults = spec.faults;
        desim::Simulator sim;
        ccnuma::Machine machine{sim, cfg};
        execute(sim, machine, *spec.sharedMemoryApp, spec, opts.sampler,
                opts.samplePeriodUs,
                [&machine] { return machine.network().messageCount(); });
        drive.log = std::move(machine.log());
        drive.measure(machine.network(), sim.now());
        finishTrackers(sim.now());
        characterize(cfg.mesh, Strategy::Dynamic);
        report.verified = spec.sharedMemoryApp->verify();
        if (spec.faults)
            fillResilience(report.resilience, *spec.faults, 0, 0, 0);
    } else if (spec.messagePassingApp) {
        mp::MpConfig cfg = spec.mp;
        if (spec.faults)
            cfg.mesh.faults = spec.faults;
        desim::Simulator sim;
        mp::MpWorld world{sim, cfg};
        world.enableTracing();
        // Delivered messages plus resolved delivery failures: a bounded
        // retry budget draining on a hostile plan (e.g. drop:1.0) is
        // progress toward the accounted failure exit, while an
        // unbounded no-delivery retry loop still trips the watchdog.
        execute(sim, world, *spec.messagePassingApp, spec, nullptr, 0.0,
                [&world] {
                    return world.network().messageCount() +
                           world.deliveryFailures();
                });
        const bool verified = spec.messagePassingApp->verify();
        trace::Trace collected = world.collectedTrace();
        if (spec.traceOut)
            *spec.traceOut = collected;
        if (activity)
            activity->finish(sim.now());
        {
            // The replay rebuilds the network. The rank tracker is
            // detached so the replayed traffic does not double-count
            // the comm spans of the application run just recorded.
            // The replay mesh is the network the static-strategy
            // report describes, so the link sink restarts here and
            // only the replayed traffic enters the weather analysis.
            obs::ScopedObservability detachActivity{
                obs::metrics(), obs::tracer(), obs::flows(), nullptr,
                links};
            if (links)
                links->reset();
            drive = replayTrace(collected, cfg.mesh, spec, opts);
        }
        if (links)
            links->finish(drive.makespan);
        characterize(cfg.mesh, Strategy::Static);
        report.verified = verified;
        if (spec.faults) {
            fillResilience(report.resilience, *spec.faults,
                           world.retransmits() + drive.retransmits,
                           world.deliveryFailures() + drive.deliveryFailures,
                           0);
            report.resilience.rankRetransmits = world.rankRetransmits();
            report.resilience.rankCorruptDiscards =
                world.rankCorruptDiscards();
        }
    } else if (spec.trace) {
        // A replay has no application threads, so the rank tracker
        // only holds in-network comm spans: a per-rank traffic
        // timeline with no blocked intervals or skew.
        drive = replayTrace(*spec.trace, spec.mp.mesh, spec, opts);
        finishTrackers(drive.makespan);
        characterize(spec.mp.mesh, Strategy::Static);
        const std::uint64_t skipped = spec.trace->skippedRecords();
        if (spec.faults) {
            fillResilience(report.resilience, *spec.faults,
                           drive.retransmits, drive.deliveryFailures,
                           skipped);
        } else if (skipped > 0) {
            report.resilience.enabled = true;
            report.resilience.planDescription = "none (lenient ingest)";
            report.resilience.traceRecordsSkipped = skipped;
        }
    } else if (spec.model) {
        drive = SyntheticTrafficGenerator::run(*spec.model, spec.synth);
        finishTrackers(drive.makespan);
        characterize(spec.model->mesh, Strategy::Static);
        report.verified = true; // a model replay has no app invariant
    } else {
        throw std::invalid_argument("runCharacterization: no traffic "
                                    "source");
    }

    if (obs::MetricsRegistry *registry = obs::metrics()) {
        if (activity)
            publishRankMetrics(*registry, report.rankActivity);
        if (links)
            publishLinkMetrics(*registry, report.linkStats);
    }
    return run;
}

} // namespace cchar::core
