/**
 * @file
 * perfbench_harness — the in-process half of the benchmark.
 *
 * Two jobs, both on the public library API:
 *
 *  - `loadsweep`: the loadsweep workload, which has no CLI of its
 *    own. It calls core::SyntheticTrafficGenerator::run (the call
 *    `cchar synth` and the sweep engine use) at five time scales and
 *    writes a hexfloat summary of every load point, so the output
 *    digest pins the simulated statistics bit for bit.
 *
 *  - `trace-<workload>`: the traced run. It re-composes the work the
 *    CLI does for the workload call by call, records the benchmark's
 *    own spans around each public call (nothing inside the program is
 *    instrumented), and writes the composed outputs next to a
 *    `trace.json` holding the spans, counts and check results.
 *    run.py compares the composed outputs with the CLI's bytes,
 *    so the per-layer split measures the same computation.
 *
 * Usage (PROCS and MESSAGES re-project the model, as `cchar synth
 * --scale-procs PROCS --messages MESSAGES` does):
 *   perfbench_harness loadsweep MODEL SEED PROCS MESSAGES OUT
 *   perfbench_harness trace-suite OUTDIR APP...
 *   perfbench_harness trace-synth MODEL SEED PROCS MESSAGES OUTDIR
 *   perfbench_harness trace-loadsweep MODEL SEED PROCS MESSAGES OUTDIR
 *   perfbench_harness trace-campaign SPEC OUTDIR
 *   perfbench_harness sink-cost SPEC OUTDIR
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/core.hh"
#include "obs/obs.hh"
#include "sweep/engine.hh"

namespace {

using namespace cchar;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Fixed workload parameters; sizes come from run.py.

/** Per-source in-flight cap of the loadsweep points. */
constexpr int kLoadMaxOutstanding = 4;
/** Gap multipliers of the load points, light load to heavy. */
constexpr double kTimeScales[] = {4.0, 2.0, 1.0, 0.5, 0.25};
/** Telemetry period of `cchar characterize --report-out` (its default). */
constexpr double kSamplePeriodUs = 50.0;

// ---------------------------------------------------------------------
// Spans: recorded in memory, written out once at the end.

struct Span
{
    std::string name;
    int parent = -1;
    double startMs = 0.0;
    double endMs = 0.0;
};

class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    void
    begin(const std::string &name)
    {
        int parent = open_.empty() ? -1 : open_.back();
        open_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back(Span{name, parent, nowMs(), 0.0});
    }

    void
    end()
    {
        spans_[open_.back()].endMs = nowMs();
        open_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    nowMs() const
    {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: open on construction, closed on scope exit. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const std::string &name) : log_(log)
    {
        log_.begin(name);
    }
    ~SpanScope() { log_.end(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
};

/** Run `f` inside a span named `name` and return its result. */
template <typename F>
auto
timed(SpanLog &log, const std::string &name, F &&f)
{
    SpanScope scope{log, name};
    return f();
}

/** Counts and checks a traced run reports beside its spans. */
struct TraceOutput
{
    SpanLog spans;
    std::map<std::string, double> counts;
    /** Failed conservation / verification checks, by description. */
    std::vector<std::string> failures;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os{path};
        os.precision(17);
        os << "{\"spans\":[";
        const auto &all = spans.spans();
        for (std::size_t i = 0; i < all.size(); ++i) {
            os << (i ? "," : "") << "{\"name\":\"" << all[i].name
               << "\",\"parent\":" << all[i].parent
               << ",\"start_ms\":" << all[i].startMs
               << ",\"end_ms\":" << all[i].endMs << "}";
        }
        os << "],\"counts\":{";
        bool first = true;
        for (const auto &[name, value] : counts) {
            os << (first ? "" : ",") << "\"" << name << "\":" << value;
            first = false;
        }
        os << "},\"failures\":[";
        for (std::size_t i = 0; i < failures.size(); ++i)
            os << (i ? "," : "") << "\"" << failures[i] << "\"";
        os << "]}\n";
        if (!os)
            throw std::runtime_error("cannot write " + path);
    }
};

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os{path, std::ios::binary};
    os << bytes;
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

double
counterValue(obs::MetricsRegistry &registry, const std::string &name)
{
    return static_cast<double>(registry.counter(name).value());
}

// ---------------------------------------------------------------------
// CharacterizationPipeline::analyze, composed call by call.

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

core::CharacterizationReport
analyzeTraced(TraceOutput &out, const trace::TrafficLog &log,
              const mesh::MeshConfig &mesh, const std::string &application,
              core::Strategy strategy, const core::NetworkSummary &network)
{
    SpanLog &spans = out.spans;
    SpanScope analysis{spans, "core.analysis"};
    core::PipelineOptions opts;
    opts.detectPhases = true;

    core::CharacterizationReport report;
    report.application = application;
    report.strategy = strategy;
    report.nprocs = log.nprocs();
    report.mesh = mesh;
    report.network = network;
    report.network.avgHops = averageHops(log);

    core::TemporalAnalyzer temporal{opts.fitter};
    report.temporalAggregate = timed(spans, "stats.fit_aggregate", [&] {
        return temporal.analyzeAggregate(log);
    });
    report.temporalPerSource = timed(spans, "stats.fit_per_source", [&] {
        return temporal.analyzeAllSources(log, opts.minSamplesPerSource);
    });

    {
        SpanScope spatialSpan{spans, "core.spatial"};
        core::SpatialAnalyzer spatial{opts.classifier};
        report.spatialPerSource = spatial.analyzeAllSources(log);
        report.spatialAggregate = spatial.analyzeAggregate(log);
        report.hopDistancePmf =
            core::SpatialAnalyzer::hopDistanceProfile(log, mesh);
    }

    report.volume = timed(spans, "core.volume",
                          [&] { return core::VolumeAnalyzer{}.analyze(log); });

    for (trace::MessageKind kind :
         {trace::MessageKind::Data, trace::MessageKind::Control,
          trace::MessageKind::Sync}) {
        trace::TrafficLog sub = timed(spans, "trace.filter_kind",
                                      [&] { return log.filterKind(kind); });
        if (sub.empty())
            continue;
        core::CharacterizationReport::KindBreakdown kb;
        kb.kind = kind;
        kb.volume = timed(spans, "core.volume",
                          [&] { return core::VolumeAnalyzer{}.analyze(sub); });
        kb.temporal = timed(spans, "stats.fit_per_kind", [&] {
            return temporal.analyzeAggregate(sub);
        });
        report.perKind.push_back(std::move(kb));
    }
    report.structured = timed(spans, "core.patterns", [&] {
        return core::StructuredPatternDetector{}.analyze(log);
    });
    report.phases = timed(spans, "core.phases", [&] {
        return core::PhaseAnalyzer{opts.phase, opts.fitter, opts.classifier}
            .analyze(log);
    });

    double samples = report.temporalAggregate.stats.count;
    for (const auto &fit : report.temporalPerSource)
        samples += fit.stats.count;
    for (const auto &kb : report.perKind)
        samples += kb.temporal.stats.count;
    out.counts["stats.fit_samples"] += samples;
    return report;
}

core::NetworkSummary
summaryOf(const core::DriveResult &r)
{
    core::NetworkSummary net;
    net.latencyMean = r.latencyMean;
    net.latencyMax = r.latencyMax;
    net.contentionMean = r.contentionMean;
    net.makespan = r.makespan;
    net.avgChannelUtilization = r.avgChannelUtilization;
    net.maxChannelUtilization = r.maxChannelUtilization;
    return net;
}

std::string
jsonOf(const core::CharacterizationReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

// ---------------------------------------------------------------------
// suite: `cchar characterize <app> --phases --json --report-out F`.

/** One app, mirroring cmdCharacterize with those flags. */
void
traceSuiteApp(TraceOutput &out, const std::string &name,
              const std::string &outdir)
{
    SpanLog &spans = out.spans;
    SpanScope appSpan{spans, "suite.app"};
    // The sinks --report-out installs, fresh per app as in one CLI
    // process per app.
    obs::MetricsRegistry registry;
    obs::WindowedSampler sampler;
    obs::FlowTracker flows;
    obs::ScopedObservability scope{&registry, nullptr, &flows};

    core::CharacterizationReport report;
    if (auto app = apps::makeSharedMemoryApp(name)) {
        ccnuma::MachineConfig cfg;
        cfg.mesh.width = 4;
        cfg.mesh.height = 4;
        desim::Simulator sim;
        ccnuma::Machine machine{sim, cfg};
        core::attachNetworkTelemetry(sim, machine.network(), sampler,
                                     kSamplePeriodUs);
        {
            SpanScope run{spans, "ccnuma.run"};
            apps::launch(machine, *app);
            machine.run();
        }
        core::NetworkSummary net;
        net.latencyMean = machine.network().latencyStats().mean();
        net.latencyMax = machine.network().latencyStats().max();
        net.contentionMean = machine.network().contentionStats().mean();
        net.makespan = machine.log().lastDeliverTime();
        net.avgChannelUtilization =
            machine.network().averageChannelUtilization(sim.now());
        net.maxChannelUtilization =
            machine.network().maxChannelUtilization(sim.now());
        report = analyzeTraced(out, machine.log(), cfg.mesh, name,
                               core::Strategy::Dynamic, net);
        report.verified = app->verify();
        out.check(machine.log().size() == machine.network().messageCount(),
                  name + ": log size != mesh message count");
        out.counts["desim.events"] += sim.processedEvents();
        out.counts["mesh.messages"] += machine.network().messageCount();
    } else if (auto mpApp = apps::makeMessagePassingApp(name)) {
        mp::MpConfig cfg;
        cfg.mesh.width = 4;
        cfg.mesh.height = 2;
        desim::Simulator sim;
        mp::MpWorld world{sim, cfg};
        world.enableTracing();
        {
            SpanScope run{spans, "mp.run"};
            apps::launch(world, *mpApp);
            world.run();
        }
        bool verified = mpApp->verify();
        trace::Trace collected = world.collectedTrace();
        core::ReplayOptions ropts;
        ropts.sampler = &sampler;
        ropts.samplePeriodUs = kSamplePeriodUs;
        const double meshBefore = counterValue(registry, "mesh.messages");
        const double eventsBefore = counterValue(registry, "desim.events");
        core::DriveResult replayed = timed(spans, "core.replay", [&] {
            return core::TraceReplayer::replay(collected, cfg.mesh, ropts);
        });
        const double replayMesh =
            counterValue(registry, "mesh.messages") - meshBefore;
        report = analyzeTraced(out, replayed.log, cfg.mesh, name,
                               core::Strategy::Static, summaryOf(replayed));
        report.verified = verified;
        out.check(static_cast<double>(replayed.log.size()) == replayMesh,
                  name + ": replay log size != replay mesh message count");
        out.counts["desim.events"] +=
            sim.processedEvents() +
            (counterValue(registry, "desim.events") - eventsBefore);
        out.counts["mesh.messages"] +=
            world.network().messageCount() + replayMesh;
    } else {
        throw std::runtime_error("unknown application " + name);
    }
    out.check(report.verified, name + ": verify() failed");

    obs::publishSinkStats(registry, nullptr, &flows);
    core::HtmlReportInputs html;
    html.report = &report;
    html.registry = &registry;
    html.sampler = &sampler;
    html.flows = &flows;
    std::string htmlBytes = timed(spans, "core.render_html", [&] {
        std::ostringstream os;
        core::writeHtmlReport(os, html);
        return os.str();
    });
    std::string json =
        timed(spans, "core.render_json", [&] { return jsonOf(report); });
    out.counts["core.report_bytes"] += htmlBytes.size() + json.size();
    writeFile(outdir + "/" + name + ".html", htmlBytes);
    writeFile(outdir + "/" + name + ".json", json);
}

void
traceSuite(TraceOutput &out, const std::string &outdir,
           const std::vector<std::string> &names)
{
    SpanScope pass{out.spans, "pass"};
    for (const std::string &name : names)
        traceSuiteApp(out, name, outdir);
}

// ---------------------------------------------------------------------
// synth_scale: `cchar synth MODEL --scale-procs P --messages M
//               --seed S --phases --json`.

/** Model file, generator seed and the re-projection of a synth run. */
struct ModelArgs
{
    std::string path;
    std::uint64_t seed = 0;
    int procs = 0;
    std::size_t messages = 0;
};

/** The model as the CLI loads and re-projects it, with spans. */
struct LoadedModel
{
    core::SyntheticModel model;
    int origProcs = 0;
    int origNodes = 0;
    std::size_t origTotal = 0;
};

LoadedModel
loadScaled(SpanLog &spans, const ModelArgs &args)
{
    LoadedModel loaded;
    core::SyntheticModel original = timed(spans, "core.synth_load", [&] {
        return core::SyntheticModel::fromJsonFile(args.path);
    });
    loaded.origProcs = original.nprocs;
    loaded.origNodes = original.mesh.nodes();
    loaded.origTotal = original.totalMessages();
    loaded.model = timed(spans, "core.synth_scale", [&] {
        return original.scaleTo(args.procs, args.messages);
    });
    return loaded;
}

void
traceSynth(TraceOutput &out, const ModelArgs &args, const std::string &outdir)
{
    SpanLog &spans = out.spans;
    SpanScope pass{spans, "pass"};
    obs::MetricsRegistry registry;
    obs::ScopedObservability scope{&registry};

    LoadedModel loaded = loadScaled(spans, args);
    const core::SyntheticModel &model = loaded.model;
    core::SynthRunOptions ropts;
    ropts.seed = args.seed;
    core::DriveResult result = timed(spans, "core.synth_generate", [&] {
        return core::SyntheticTrafficGenerator::run(model, ropts);
    });
    out.check(result.log.size() == model.totalMessages(),
              "synth: delivered != injected");
    out.check(static_cast<double>(result.log.size()) ==
                  counterValue(registry, "mesh.messages"),
              "synth: log size != mesh message count");

    std::string label = model.application.empty()
                            ? args.path
                            : model.application + " (synthetic)";
    core::CharacterizationReport report =
        analyzeTraced(out, result.log, model.mesh, label,
                      core::Strategy::Static, summaryOf(result));
    report.verified = true;
    report.synthFidelity = timed(spans, "core.synth_fidelity", [&] {
        return core::computeSynthFidelity(model, result.log);
    });
    report.synthFidelity.modelSource = args.path;
    report.synthFidelity.modelProcs = loaded.origProcs;
    report.synthFidelity.scaleTiles = model.mesh.nodes() / loaded.origNodes;
    report.synthFidelity.messageScale =
        loaded.origTotal > 0 ? static_cast<double>(model.totalMessages()) /
                                   static_cast<double>(loaded.origTotal)
                             : 1.0;
    report.synthFidelity.seed = ropts.seed;

    std::string json =
        timed(spans, "core.render_json", [&] { return jsonOf(report); });
    out.counts["core.report_bytes"] += json.size();
    out.counts["desim.events"] += counterValue(registry, "desim.events");
    out.counts["mesh.messages"] += counterValue(registry, "mesh.messages");
    writeFile(outdir + "/synth.json", json);
}

// ---------------------------------------------------------------------
// loadsweep: SyntheticTrafficGenerator::run at five offered loads.

std::string
scaleLabel(double ts)
{
    std::ostringstream os;
    os << "x" << ts;
    return os.str();
}

/** One hexfloat line per load point: the simulated statistics. */
void
appendLoadPoint(std::string &summary, double ts, const core::DriveResult &r,
                std::size_t injected)
{
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s messages=%zu injected=%zu latency=%a contention=%a "
                  "utilization=%a makespan=%a\n",
                  scaleLabel(ts).c_str(), r.log.size(), injected,
                  r.latencyMean, r.contentionMean, r.avgChannelUtilization,
                  r.makespan);
    summary += line;
}

core::SynthRunOptions
loadOptions(std::uint64_t seed, double ts)
{
    core::SynthRunOptions ropts;
    ropts.seed = seed;
    ropts.timeScale = ts;
    ropts.maxOutstanding = kLoadMaxOutstanding;
    return ropts;
}

void
runLoadsweep(const ModelArgs &args, const std::string &outPath)
{
    core::SyntheticModel model =
        core::SyntheticModel::fromJsonFile(args.path).scaleTo(args.procs,
                                                              args.messages);
    std::string summary;
    for (double ts : kTimeScales) {
        core::DriveResult r = core::SyntheticTrafficGenerator::run(
            model, loadOptions(args.seed, ts));
        appendLoadPoint(summary, ts, r, model.totalMessages());
    }
    writeFile(outPath, summary);
}

void
traceLoadsweep(TraceOutput &out, const ModelArgs &args,
               const std::string &outdir)
{
    SpanLog &spans = out.spans;
    SpanScope pass{spans, "pass"};
    obs::MetricsRegistry registry;
    obs::ScopedObservability scope{&registry};
    const core::SyntheticModel model = loadScaled(spans, args).model;
    std::string summary;
    for (double ts : kTimeScales) {
        SpanScope point{spans, "load." + scaleLabel(ts)};
        const double meshBefore = counterValue(registry, "mesh.messages");
        core::DriveResult r = timed(spans, "core.synth_generate", [&] {
            return core::SyntheticTrafficGenerator::run(
                model, loadOptions(args.seed, ts));
        });
        out.check(r.log.size() == model.totalMessages(),
                  scaleLabel(ts) + ": delivered != injected");
        out.check(static_cast<double>(r.log.size()) ==
                      counterValue(registry, "mesh.messages") - meshBefore,
                  scaleLabel(ts) + ": log size != mesh message count");
        appendLoadPoint(summary, ts, r, model.totalMessages());
    }
    out.counts["desim.events"] += counterValue(registry, "desim.events");
    out.counts["mesh.messages"] += counterValue(registry, "mesh.messages");
    writeFile(outdir + "/loadsweep.txt", summary);
}

// ---------------------------------------------------------------------
// campaign: `cchar sweep --spec SPEC -j 2 --journal J --out F`.

/** Worker count of the campaign (two, within the 4-thread budget). */
constexpr int kCampaignWorkers = 2;

void
traceCampaign(TraceOutput &out, const std::string &specPath,
              const std::string &outdir)
{
    SpanLog &spans = out.spans;
    sweep::SweepSpec spec = sweep::SweepSpec::fromJsonFile(specPath);
    const std::string journal = outdir + "/journal.jsonl";
    SpanScope pass{spans, "pass"};
    // cchar sweep always hands the engine its signal counter, which
    // arms a cancellation watchdog on every job; the armed watchdog is
    // part of the computation (it extends each job's sim clock).
    std::atomic<int> shutdown{0};
    sweep::SweepRunOptions ropts;
    ropts.workers = kCampaignWorkers;
    ropts.journalPath = journal;
    ropts.shutdown = &shutdown;
    sweep::SweepResult result = timed(spans, "sweep.run", [&] {
        return sweep::SweepEngine{spec}.run(ropts);
    });
    std::string json = timed(spans, "core.render_json", [&] {
        std::ostringstream os;
        result.writeJson(os);
        return os.str();
    });
    writeFile(outdir + "/sweep.json", json);

    double busy = 0.0;
    for (const auto &ws : result.workerStats)
        busy += ws.busyFraction;
    busy /= result.workerStats.empty() ? 1.0 : result.workerStats.size();
    double rerouted = 0.0;
    for (const auto &o : result.outcomes) {
        rerouted += o.reroutedPackets;
        out.check(o.ok() && !o.quarantined, o.job.label() + ": " + o.status);
        out.check(o.verified, o.job.label() + ": verify() failed");
    }
    out.counts["sweep.jobs_failed"] = result.failures();
    out.counts["sweep.retries"] = result.retries();
    out.counts["sweep.worker_busy_frac"] = busy;
    out.counts["sweep.worker_idle_frac"] = 1.0 - busy;
    out.counts["sweep.journal_bytes"] =
        static_cast<double>(std::filesystem::file_size(journal));
    out.counts["fault.rerouted_packets"] = rerouted;
    out.counts["core.report_bytes"] = json.size();
    out.counts["desim.events"] = counterValue(*result.metrics, "desim.events");
    out.counts["mesh.messages"] =
        counterValue(*result.metrics, "mesh.messages");
}

/**
 * Sink cost: every campaign job run sequentially with its sinks as
 * specified and again with both trackers off, each with the cancel
 * flag the CLI's workers pass.
 */
void
traceSinkCost(TraceOutput &out, const std::string &specPath)
{
    const std::atomic<bool> cancel{false};
    for (const sweep::SweepJob &job :
         sweep::SweepSpec::fromJsonFile(specPath).expand()) {
        sweep::SweepJob bare = job;
        bare.linkStats = false;
        bare.rankActivity = false;
        using Variant = std::pair<const sweep::SweepJob *, const char *>;
        for (const auto &[variant, name] :
             {Variant{&job, "sweep.job_sinks_on"},
              Variant{&bare, "sweep.job_sinks_off"}}) {
            obs::MetricsRegistry registry;
            sweep::JobOutcome o = timed(out.spans, name, [&] {
                return sweep::SweepEngine::runJob(*variant, registry,
                                                  &cancel);
            });
            out.check(o.ok(), variant->label() + ": " + o.status);
        }
    }
}

template <typename T>
T
parseNumber(const char *text, const char *what)
{
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        throw std::runtime_error(std::string{"bad "} + what + " '" + text +
                                 "'");
    return static_cast<T>(value);
}

/** argv[0..3] = MODEL SEED PROCS MESSAGES. */
ModelArgs
modelArgs(char **argv)
{
    ModelArgs args;
    args.path = argv[0];
    args.seed = parseNumber<std::uint64_t>(argv[1], "seed");
    args.procs = parseNumber<int>(argv[2], "procs");
    args.messages = parseNumber<std::size_t>(argv[3], "messages");
    return args;
}

int
usage()
{
    std::cerr
        << "usage:\n"
           "  perfbench_harness loadsweep MODEL SEED PROCS MESSAGES OUT\n"
           "  perfbench_harness trace-suite OUTDIR APP...\n"
           "  perfbench_harness trace-synth MODEL SEED PROCS MESSAGES "
           "OUTDIR\n"
           "  perfbench_harness trace-loadsweep MODEL SEED PROCS MESSAGES "
           "OUTDIR\n"
           "  perfbench_harness trace-campaign SPEC OUTDIR\n"
           "  perfbench_harness sink-cost SPEC OUTDIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string mode = argv[1];
    try {
        if (mode == "loadsweep" && argc == 7) {
            runLoadsweep(modelArgs(argv + 2), argv[6]);
            return 0;
        }
        TraceOutput out;
        std::string outdir = argv[argc - 1];
        if (mode == "trace-suite" && argc >= 4) {
            outdir = argv[2];
            traceSuite(out, outdir, {argv + 3, argv + argc});
        } else if (mode == "trace-synth" && argc == 7) {
            traceSynth(out, modelArgs(argv + 2), outdir);
        } else if (mode == "trace-loadsweep" && argc == 7) {
            traceLoadsweep(out, modelArgs(argv + 2), outdir);
        } else if (mode == "trace-campaign" && argc == 4) {
            traceCampaign(out, argv[2], outdir);
        } else if (mode == "sink-cost" && argc == 4) {
            traceSinkCost(out, argv[2]);
        } else {
            return usage();
        }
        out.write(outdir + "/trace.json");
        return 0;
    } catch (const std::exception &err) {
        std::cerr << "perfbench_harness: " << err.what() << "\n";
        return 1;
    }
}
