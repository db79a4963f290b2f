/**
 * @file
 * cchar — command-line driver for the characterization tool chain.
 *
 * Subcommands:
 *   list                             show available applications
 *   characterize <app> [options]     run + print the full report
 *   report <app> [options]           run + write the HTML run report
 *                                    to --out FILE (default stdout)
 *   trace <mp-app> --out FILE        collect an SP2-style trace
 *   replay <FILE> [options]          replay a trace into a mesh
 *   synth <MODEL.json> [options]     drive the mesh with synthetic
 *                                    traffic drawn from a saved
 *                                    characterization (the --json
 *                                    output of `characterize`),
 *                                    re-characterize it and report
 *                                    per-attribute model fidelity
 *   sweep <SPEC|@FILE> [options]     run a job matrix on a worker
 *                                    pool, merge deterministically
 *
 * Common options:
 *   --width W --height H             network dimensions
 *   --torus                          torus topology (2 VCs)
 *   --vcs N                          virtual channels
 *   --windows N                      print a windowed phase profile
 *   --phases                         detect execution phases and
 *                                    characterize each one
 *   --synthetic                      also run the fitted synthetic
 *                                    model and report validation
 *
 * Observability options:
 *   --trace-out FILE                 write a Chrome trace-event JSON
 *                                    with message flow arrows (load
 *                                    in Perfetto / about:tracing)
 *   --metrics-out FILE               write the metrics registry,
 *                                    windowed telemetry and message
 *                                    lifecycle records as JSON
 *   --report-out FILE                write the self-contained HTML
 *                                    run report (implies --phases)
 *   --sample-period US               telemetry sampling period in
 *                                    simulated microseconds (default 50)
 *   --rank-activity                  record per-rank activity
 *                                    timelines and report skew /
 *                                    idle-fraction / idle-wave
 *                                    desynchronization analytics
 *                                    (off by default; default
 *                                    outputs are unchanged)
 *   --link-stats                     record per-link utilization and
 *                                    queue occupancy and report the
 *                                    network-weather analysis
 *                                    (hotspots, Gini, congestion
 *                                    onset; off by default, default
 *                                    outputs are unchanged)
 *   --top-links N                    ranked links/routers kept in the
 *                                    network-weather output (16)
 *   --progress                       periodic progress line on stderr
 *                                    (sweep: live done/total + ETA
 *                                    and per-worker stats)
 *
 * Resilience options:
 *   --fault-plan SPEC|@FILE          run under a fault plan (clauses
 *                                    like "link:3->4:down@[10ms,25ms];
 *                                    drop:p=0.001", or @file with the
 *                                    textual or JSON plan form)
 *   --seed N                         fault-decision RNG seed override
 *   --trace-errors strict|skip       malformed trace records abort
 *                                    (strict, default) or are skipped
 *                                    with a diagnostic (skip)
 *   --strict / --lenient             aliases for --trace-errors
 *   --watchdog-period US             no-progress check period (5000)
 *   --watchdog-stalls N              checks without progress before
 *                                    the watchdog trips (8)
 *   --max-sim-time US                hard sim-time horizon (0 = none)
 *
 * Exit codes:
 *   0  success
 *   1  analysis or application-verification failure
 *   2  usage error (bad command line)
 *   3  input error (malformed trace or fault plan, missing file)
 *   4  simulation error (deadlock, delivery failure wedge...)
 *   5  no-progress watchdog tripped
 *   6  a sweep job exceeded its --job-timeout deadline (after
 *      exhausting --job-retries) and was quarantined
 *   7  interrupted by SIGINT/SIGTERM; a journaled sweep can be
 *      continued with --resume
 */

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include <unistd.h>

#include "fault/injector.hh"
#include "obs/obs.hh"

#include "apps/registry.hh"
#include "core/core.hh"
#include "sweep/chaos.hh"
#include "sweep/engine.hh"

namespace {

using namespace cchar;

/** The subcommand an Options set belongs to (selects the output). */
enum class Command
{
    Characterize,
    Report,
    Replay,
    Synth,
};

struct Options
{
    Command command = Command::Characterize;
    int width = 4;
    int height = 4;
    bool torus = false;
    int vcs = 1;
    int windows = 0;
    bool phases = false;
    bool synthetic = false;
    bool json = false;
    std::string out;
    std::string traceOut;
    std::string metricsOut;
    std::string reportOut;
    double samplePeriodUs = 50.0;
    bool progress = false;
    /** Track per-rank activity and run the desync analysis. */
    bool rankActivity = false;
    /** Track per-link stats and run the network-weather analysis. */
    bool linkStats = false;
    /** Ranked links/routers kept in link-weather output. */
    int topLinks = 16;

    /** --fault-plan SPEC or @FILE ("" = fault-free). */
    std::string faultPlan;
    /** --no-reroute: disable fault-aware adaptive routing. */
    bool reroute = true;
    std::uint64_t seed = 0;
    bool seedSet = false;
    trace::ErrorMode traceErrors = trace::ErrorMode::Strict;
    desim::WatchdogConfig watchdog{};

    bool faulted() const { return !faultPlan.empty(); }

    /** Any observability output requested at all. */
    bool
    wantsObs() const
    {
        return !traceOut.empty() || !metricsOut.empty() ||
               !reportOut.empty() || command == Command::Report;
    }
};

using apps::makeMessagePassingApp;
using apps::makeSharedMemoryApp;

mesh::MeshConfig
meshOf(const Options &opts)
{
    mesh::MeshConfig cfg;
    cfg.width = opts.width;
    cfg.height = opts.height;
    if (opts.torus) {
        cfg.topology = mesh::Topology::Torus;
        cfg.virtualChannels = std::max(opts.vcs, 2);
    } else {
        cfg.virtualChannels = opts.vcs;
    }
    cfg.adaptiveRouting = opts.reroute;
    return cfg;
}

/**
 * Observability sinks for one tool invocation. Installs the process-
 * wide metrics registry / tracer before any simulator is built (so
 * components resolve their handles) and writes the requested output
 * files on finish().
 */
class ObsSession
{
  public:
    explicit ObsSession(const Options &opts)
        : opts_(opts),
          scope_(opts.wantsObs() ? &registry_ : nullptr,
                 opts.traceOut.empty() ? nullptr : &tracer_,
                 opts.wantsObs() ? &flows_ : nullptr,
                 opts.rankActivity ? &activity_ : nullptr,
                 opts.linkStats ? &linkStats_ : nullptr)
    {}

    /** The sampler to hand to the run, or nullptr when unwanted. */
    obs::WindowedSampler *sampler()
    {
        return !opts_.metricsOut.empty() || !opts_.reportOut.empty() ||
                       opts_.command == Command::Report
                   ? &sampler_
                   : nullptr;
    }

    /** Installed sinks, for report rendering (null when inactive). */
    const obs::MetricsRegistry *registry() const
    {
        return opts_.wantsObs() ? &registry_ : nullptr;
    }
    const obs::FlowTracker *flows() const
    {
        return opts_.wantsObs() ? &flows_ : nullptr;
    }

    /** Write --trace-out / --metrics-out files. False on I/O error. */
    bool finish()
    {
        if (opts_.wantsObs()) {
            obs::publishSinkStats(
                registry_,
                opts_.traceOut.empty() ? nullptr : &tracer_, &flows_);
        }
        if (!opts_.traceOut.empty()) {
            core::AtomicFileWriter writer{opts_.traceOut};
            tracer_.writeChromeJson(writer.stream());
            writer.commit();
            std::cerr << "wrote trace (" << tracer_.size()
                      << " records, " << tracer_.dropped()
                      << " dropped) to " << opts_.traceOut << "\n";
            if (tracer_.dropped() > 0) {
                std::cerr << "warning: trace ring buffer overwrote "
                          << tracer_.dropped()
                          << " records; the exported trace is "
                             "truncated at the front\n";
            }
        }
        if (!opts_.metricsOut.empty()) {
            core::AtomicFileWriter writer{opts_.metricsOut};
            core::writeMetricsJson(writer.stream(), &registry_,
                                   &sampler_, &flows_);
            writer.commit();
            std::cerr << "wrote metrics to " << opts_.metricsOut
                      << "\n";
        }
        return true;
    }

  private:
    const Options &opts_;
    obs::MetricsRegistry registry_;
    obs::Tracer tracer_;
    obs::WindowedSampler sampler_;
    obs::FlowTracker flows_;
    obs::RankActivityTracker activity_;
    obs::LinkStatsTracker linkStats_;
    obs::ScopedObservability scope_;
};

/** Periodic progress line on stderr, driven by the simulator clock. */
void
attachProgress(desim::Simulator &sim, double periodUs)
{
    sim.attachPeriodic(
        [&sim](desim::SimTime t) {
            std::cerr << "[cchar] t=" << t << "us  events="
                      << sim.processedEvents() << "  calendar="
                      << sim.calendarSize() << "\n";
        },
        periodUs);
}

int
usage()
{
    std::cerr
        << "usage:\n"
           "  cchar list\n"
           "  cchar characterize <app> [--width W] [--height H]\n"
           "                     [--torus] [--vcs N] [--windows N]\n"
           "                     [--phases] [--synthetic] [--json]\n"
           "                     [--trace-out FILE] [--metrics-out FILE]\n"
           "                     [--report-out FILE] [--rank-activity]\n"
           "                     [--link-stats] [--top-links N]\n"
           "                     [--sample-period US] [--progress]\n"
           "                     [--fault-plan SPEC|@FILE] [--seed N]\n"
           "                     [--no-reroute]\n"
           "                     [--watchdog-period US]\n"
           "                     [--watchdog-stalls N]\n"
           "                     [--max-sim-time US]\n"
           "  cchar report <app> [--out FILE] [characterize options]\n"
           "  cchar trace <mp-app> --out FILE [--width W] [--height H]\n"
           "  cchar replay <FILE> [--width W] [--height H] [--torus]\n"
           "                      [--windows N] [--phases] [--json]\n"
           "                      [--trace-out FILE] [--metrics-out FILE]\n"
           "                      [--report-out FILE] [--rank-activity]\n"
           "                      [--link-stats] [--top-links N]\n"
           "                      [--fault-plan SPEC|@FILE] [--seed N]\n"
           "                      [--no-reroute]\n"
           "                      [--trace-errors strict|skip]\n"
           "  cchar synth <MODEL.json> [--scale-procs N] [--messages M]\n"
           "              [--seed N] [--time-scale X]\n"
           "              [--max-outstanding N] [--use-phases]\n"
           "              [--phases] [--json] [--out FILE]\n"
           "              [--report-out FILE] [--metrics-out FILE]\n"
           "              [--rank-activity] [--link-stats]\n"
           "              [--top-links N]\n"
           "  cchar sweep [--spec FILE] [--apps LIST] [--procs LIST]\n"
           "              [--loads LIST] [--seeds LIST|A..B]\n"
           "              [--fault-plan SPEC]... [--torus] [--vcs N]\n"
           "              [--rank-activity] [--link-stats] [--synthetic]\n"
           "              [--progress]\n"
           "              [-j N] [--out FILE] [--csv FILE]\n"
           "              [--journal FILE] [--resume FILE]\n"
           "              [--job-timeout SEC] [--job-retries N]\n"
           "              [--retry-backoff-ms MS]\n"
           "  cchar chaos [--seed N] [--plans N] [--apps LIST]\n"
           "              [--procs N] [--max-faults N] [--horizon US]\n"
           "              [--shrink-budget N] [--torus] [--vcs N]\n"
           "              [--json] [--out FILE] [-j N] [--progress]\n"
           "exit codes: 0 ok, 1 verification/analysis failure, 2 usage,\n"
           "            3 input error, 4 simulation error, 5 watchdog,\n"
           "            6 job deadline exceeded, 7 interrupted (resume\n"
           "              with --resume JOURNAL)\n";
    return 2;
}

/**
 * The whole of @p text as a T (an integer type or double). Trailing
 * characters, a sign an unsigned T cannot hold, or a value out of T's
 * range are a usage error: "<cmd>: bad <flag> value '<text>'".
 */
template <typename T>
T
parseNumber(const std::string &cmd, const std::string &flag,
            const std::string &text)
{
    T v{};
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc{} || end != last) {
        throw core::CCharError(core::StatusCode::UsageError,
                               cmd + ": bad " + flag + " value '" +
                                   text + "'");
    }
    return v;
}

/** @throws core::CCharError UsageError on a malformed number. */
bool
parseOptions(int argc, char **argv, int first, Options &opts)
{
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](auto &slot) {
            if (i + 1 >= argc)
                return false;
            slot = parseNumber<std::remove_reference_t<decltype(slot)>>(
                argv[1], arg, argv[++i]);
            return true;
        };
        if (arg == "--width") {
            if (!next(opts.width))
                return false;
        } else if (arg == "--height") {
            if (!next(opts.height))
                return false;
        } else if (arg == "--vcs") {
            if (!next(opts.vcs))
                return false;
        } else if (arg == "--windows") {
            if (!next(opts.windows))
                return false;
        } else if (arg == "--torus") {
            opts.torus = true;
        } else if (arg == "--phases") {
            opts.phases = true;
        } else if (arg == "--synthetic") {
            opts.synthetic = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--out") {
            if (i + 1 >= argc)
                return false;
            opts.out = argv[++i];
        } else if (arg == "--trace-out") {
            if (i + 1 >= argc)
                return false;
            opts.traceOut = argv[++i];
        } else if (arg == "--metrics-out") {
            if (i + 1 >= argc)
                return false;
            opts.metricsOut = argv[++i];
        } else if (arg == "--report-out") {
            if (i + 1 >= argc)
                return false;
            opts.reportOut = argv[++i];
        } else if (arg == "--sample-period") {
            if (!next(opts.samplePeriodUs) || opts.samplePeriodUs <= 0.0)
                return false;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--rank-activity") {
            opts.rankActivity = true;
        } else if (arg == "--link-stats") {
            opts.linkStats = true;
        } else if (arg == "--top-links") {
            if (!next(opts.topLinks) || opts.topLinks < 1)
                return false;
        } else if (arg == "--fault-plan") {
            if (i + 1 >= argc)
                return false;
            opts.faultPlan = argv[++i];
            if (opts.faultPlan.empty())
                return false;
        } else if (arg == "--no-reroute") {
            opts.reroute = false;
        } else if (arg == "--seed") {
            if (!next(opts.seed))
                return false;
            opts.seedSet = true;
        } else if (arg == "--trace-errors") {
            if (i + 1 >= argc)
                return false;
            std::string mode = argv[++i];
            if (mode == "strict")
                opts.traceErrors = trace::ErrorMode::Strict;
            else if (mode == "skip")
                opts.traceErrors = trace::ErrorMode::Lenient;
            else
                return false;
        } else if (arg == "--strict") {
            opts.traceErrors = trace::ErrorMode::Strict;
        } else if (arg == "--lenient") {
            opts.traceErrors = trace::ErrorMode::Lenient;
        } else if (arg == "--watchdog-period") {
            if (!next(opts.watchdog.checkPeriodUs) ||
                opts.watchdog.checkPeriodUs <= 0.0)
                return false;
        } else if (arg == "--watchdog-stalls") {
            int stalls = 0;
            if (!next(stalls) || stalls < 1)
                return false;
            opts.watchdog.stallChecks = stalls;
        } else if (arg == "--max-sim-time") {
            if (!next(opts.watchdog.maxSimTimeUs) ||
                opts.watchdog.maxSimTimeUs < 0.0)
                return false;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return false;
        }
    }
    return true;
}

/**
 * Build the fault plan of --fault-plan (inline spec or @file), with
 * the --seed override applied.
 * @throws core::CCharError IoError on a missing @file, ParseError on
 *         a malformed plan.
 */
fault::FaultPlan
loadFaultPlan(const Options &opts)
{
    std::string text = opts.faultPlan;
    if (!text.empty() && text[0] == '@') {
        std::ifstream f{text.substr(1)};
        if (!f) {
            throw core::CCharError(core::StatusCode::IoError,
                                   "fault plan: cannot open " +
                                       text.substr(1));
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        text = ss.str();
    }
    fault::FaultPlan plan = fault::FaultPlan::parse(text);
    if (opts.seedSet)
        plan.setSeed(opts.seed);
    return plan;
}

void
printWindows(const trace::TrafficLog &log, int windows)
{
    core::TemporalAnalyzer analyzer;
    auto fits = analyzer.analyzeWindows(log, windows);
    auto bw = core::BandwidthAnalyzer::profile(log, windows);
    std::cout << "\n-- Phase profile (" << windows << " windows) --\n";
    std::cout << "  win   rate(/us)      CV   bytes/us  family\n";
    for (std::size_t w = 0; w < fits.size(); ++w) {
        double rate = fits[w].stats.mean > 0.0
                          ? 1.0 / fits[w].stats.mean
                          : 0.0;
        std::cout << "  " << w << "    " << rate << "  "
                  << fits[w].stats.cv << "  "
                  << (w < bw.size() ? bw[w] : 0.0) << "  "
                  << (fits[w].fit.dist ? fits[w].fit.dist->name()
                                       : std::string{"(sparse)"})
                  << "\n";
    }
}

/**
 * Analysis options of a CLI run: phases when asked for or when an HTML
 * report needs them, telemetry into the session's sampler.
 */
core::PipelineOptions
pipelineOptions(const Options &opts, ObsSession &obsSession)
{
    core::PipelineOptions popts;
    popts.detectPhases = opts.phases || opts.command == Command::Report ||
                         !opts.reportOut.empty();
    popts.sampler = obsSession.sampler();
    popts.samplePeriodUs = opts.samplePeriodUs;
    popts.linkWeather.topLinks = opts.topLinks;
    return popts;
}

/** The network, faults and watchdog of an app or trace run. */
core::RunSpec
specOf(const Options &opts, std::optional<fault::FaultInjector> &injector)
{
    core::RunSpec spec;
    spec.machine.mesh = meshOf(opts);
    spec.mp.mesh = spec.machine.mesh;
    spec.faults = injector ? &*injector : nullptr;
    spec.watchdog = opts.watchdog;
    return spec;
}

/**
 * Output step shared by characterize, report, replay and synth: the
 * --trace-out/--metrics-out files, the HTML report, then the report as
 * text or JSON (or HTML for `cchar report`) and the text extras.
 */
int
emitRun(const Options &opts, ObsSession &obsSession,
        const core::RunResult &run)
{
    const core::CharacterizationReport &report = run.report;
    if (!obsSession.finish())
        return 1;

    core::HtmlReportInputs html;
    html.report = &report;
    html.registry = obsSession.registry();
    html.sampler = obsSession.sampler();
    html.flows = obsSession.flows();
    auto writeHtml = [&html](const std::string &path) {
        core::AtomicFileWriter writer{path};
        core::writeHtmlReport(writer.stream(), html);
        writer.commit();
        std::cerr << "wrote HTML report to " << path << "\n";
    };
    if (!opts.reportOut.empty())
        writeHtml(opts.reportOut);

    if (opts.command == Command::Report) {
        if (opts.reportOut.empty()) {
            if (!opts.out.empty())
                writeHtml(opts.out);
            else
                core::writeHtmlReport(std::cout, html);
        }
        return report.verified ? 0 : 1;
    }

    if (opts.command == Command::Replay && !opts.json) {
        const core::DriveResult &result = run.drive;
        std::cout << "replayed " << result.log.size() << " messages: "
                  << "latency mean " << result.latencyMean
                  << "us, contention mean " << result.contentionMean
                  << "us, makespan " << result.makespan << "us\n";
        if (opts.faulted()) {
            std::cout << "resilience: " << result.linkDrops
                      << " link drops, " << result.droppedPackets
                      << " drops, " << result.corruptedPackets
                      << " corrupted, " << result.retransmits
                      << " retransmits, " << result.deliveryFailures
                      << " delivery failures\n";
        }
    }
    if (opts.command == Command::Synth && !opts.out.empty()) {
        core::AtomicFileWriter writer{opts.out, "synth"};
        if (opts.json)
            report.writeJson(writer.stream());
        else
            report.print(writer.stream());
        writer.commit();
    } else if (opts.json) {
        report.writeJson(std::cout);
    } else {
        report.print(std::cout);
    }
    // A replayed trace has no application to verify.
    if (!report.verified && opts.command != Command::Replay) {
        std::cerr << "WARNING: application verification FAILED\n";
        return 1;
    }
    // The text phase profile would trail the JSON document and break
    // `cchar ... --json | python3 -m json.tool` style consumers, so it
    // is text-mode only.
    if (opts.windows > 0 && !opts.json)
        printWindows(run.drive.log, opts.windows);
    if (opts.synthetic) {
        auto v = core::validateModel(report);
        std::cout << "\n-- Synthetic model validation --\n"
                  << "  latency original " << v.originalLatencyMean
                  << "us, synthetic " << v.syntheticLatencyMean
                  << "us (" << v.latencyError() * 100.0 << "%)\n";
    }
    return 0;
}

/** `characterize` and `report`: run an application and report on it. */
int
cmdCharacterize(const std::string &name, const Options &opts)
{
    ObsSession obsSession{opts};
    // The injector registers its fault.* metrics at construction, so
    // it must come after the ObsSession installs the registry.
    std::optional<fault::FaultInjector> injector;
    if (opts.faulted())
        injector.emplace(loadFaultPlan(opts));
    std::unique_ptr<apps::SharedMemoryApp> app = makeSharedMemoryApp(name);
    std::unique_ptr<apps::MessagePassingApp> mpApp =
        app ? nullptr : makeMessagePassingApp(name);
    if (!app && !mpApp) {
        std::cerr << "unknown application: " << name << "\n";
        return usage();
    }
    core::RunSpec spec = specOf(opts, injector);
    spec.sharedMemoryApp = app.get();
    spec.messagePassingApp = mpApp.get();
    spec.application = name;
    if (opts.progress) {
        spec.onAppSimulator = [&opts](desim::Simulator &sim) {
            attachProgress(sim, opts.samplePeriodUs * 10.0);
        };
    }
    return emitRun(opts, obsSession,
                   core::runCharacterization(
                       spec, pipelineOptions(opts, obsSession)));
}

int
cmdTrace(const std::string &name, const Options &opts)
{
    auto app = makeMessagePassingApp(name);
    if (!app) {
        std::cerr << "unknown message-passing application: " << name
                  << "\n";
        return usage();
    }
    if (opts.out.empty()) {
        std::cerr << "trace requires --out FILE\n";
        return usage();
    }
    desim::Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh = meshOf(opts);
    mp::MpWorld world{sim, cfg};
    world.enableTracing();
    apps::launch(world, *app);
    world.run();
    world.collectedTrace().saveFile(opts.out);
    std::cout << "wrote " << world.collectedTrace().size()
              << " events to " << opts.out
              << " (verified: " << (app->verify() ? "yes" : "NO")
              << ")\n";
    return app->verify() ? 0 : 1;
}

int
cmdReplay(const std::string &path, const Options &opts)
{
    trace::TraceLoadOptions lopts;
    lopts.errors = opts.traceErrors;
    trace::Trace t = trace::Trace::loadFile(path, lopts);
    if (t.skippedRecords() > 0) {
        std::cerr << "warning: skipped " << t.skippedRecords()
                  << " malformed trace record"
                  << (t.skippedRecords() == 1 ? "" : "s") << "\n";
    }
    ObsSession obsSession{opts};
    std::optional<fault::FaultInjector> injector;
    if (opts.faulted())
        injector.emplace(loadFaultPlan(opts));
    core::RunSpec spec = specOf(opts, injector);
    spec.trace = &t;
    spec.application = path;
    return emitRun(opts, obsSession,
                   core::runCharacterization(
                       spec, pipelineOptions(opts, obsSession)));
}

/**
 * `cchar synth` — model-driven traffic replay at arbitrary scale.
 *
 * Loads a characterization JSON (the --json output of `characterize`),
 * optionally re-projects it onto a larger topology (--scale-procs) and
 * a larger message budget (--messages), drives the mesh simulator with
 * seeded draws from the fitted distributions, re-characterizes the
 * synthetic traffic, and reports the per-attribute KS divergence
 * between the model and what it produced — the closed loop of the
 * methodology. Deterministic: identical inputs produce byte-identical
 * output.
 */
int
cmdSynth(int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-') {
        throw core::CCharError(core::StatusCode::UsageError,
                               "synth: needs a model JSON path");
    }
    std::string modelPath = argv[2];
    Options opts;
    opts.command = Command::Synth;
    core::SynthRunOptions ropts;
    int scaleProcs = 0;
    std::uint64_t messages = 0;

    auto value = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc) {
            throw core::CCharError(core::StatusCode::UsageError,
                                   "synth: " + flag + " needs a value");
        }
        return argv[++i];
    };

    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--scale-procs") {
            scaleProcs = parseNumber<int>("synth", arg, value(i, arg));
            if (scaleProcs < 1) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "synth: --scale-procs must be "
                                       ">= 1");
            }
        } else if (arg == "--messages") {
            messages =
                parseNumber<std::uint64_t>("synth", arg, value(i, arg));
        } else if (arg == "--seed") {
            ropts.seed =
                parseNumber<std::uint64_t>("synth", arg, value(i, arg));
        } else if (arg == "--time-scale") {
            ropts.timeScale =
                parseNumber<double>("synth", arg, value(i, arg));
            if (ropts.timeScale <= 0.0) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "synth: --time-scale must be "
                                       "> 0");
            }
        } else if (arg == "--max-outstanding") {
            ropts.maxOutstanding =
                parseNumber<int>("synth", arg, value(i, arg));
            if (ropts.maxOutstanding < 0) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "synth: --max-outstanding "
                                       "cannot be negative");
            }
        } else if (arg == "--use-phases") {
            ropts.usePhases = true;
        } else if (arg == "--phases") {
            opts.phases = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--out") {
            opts.out = value(i, arg);
        } else if (arg == "--report-out") {
            opts.reportOut = value(i, arg);
        } else if (arg == "--metrics-out") {
            opts.metricsOut = value(i, arg);
        } else if (arg == "--rank-activity") {
            opts.rankActivity = true;
        } else if (arg == "--link-stats") {
            opts.linkStats = true;
        } else if (arg == "--top-links") {
            opts.topLinks = parseNumber<int>("synth", arg, value(i, arg));
            if (opts.topLinks < 1) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "synth: --top-links must be "
                                       ">= 1");
            }
        } else {
            throw core::CCharError(core::StatusCode::UsageError,
                                   "synth: unknown option '" + arg +
                                       "'");
        }
    }

    core::SyntheticModel model =
        core::SyntheticModel::fromJsonFile(modelPath);
    const int origProcs = model.nprocs;
    const int origNodes = model.mesh.nodes();
    const std::size_t origTotal = model.totalMessages();
    if (scaleProcs > 0 || messages > 0)
        model = model.scaleTo(scaleProcs, messages);

    // The trackers must be ambient before the generator builds its
    // MeshNetwork (components resolve the sinks at construction).
    ObsSession obsSession{opts};
    core::RunSpec spec;
    spec.model = &model;
    spec.synth = ropts;
    spec.application = model.application.empty()
                           ? modelPath
                           : model.application + " (synthetic)";
    core::RunResult run =
        core::runCharacterization(spec, pipelineOptions(opts, obsSession));

    core::SynthesisFidelity &sf = run.report.synthFidelity;
    sf = core::computeSynthFidelity(model, run.drive.log);
    sf.modelSource = modelPath;
    sf.modelProcs = origProcs;
    sf.scaleTiles = model.mesh.nodes() / origNodes;
    sf.messageScale = origTotal > 0
                          ? static_cast<double>(model.totalMessages()) /
                                static_cast<double>(origTotal)
                          : 1.0;
    sf.seed = ropts.seed;

    int rc = emitRun(opts, obsSession, run);
    if (rc != 0)
        return rc;
    std::cerr << "synth: " << run.drive.log.size() << " messages from "
              << modelPath << " (KS temporal " << sf.temporalKs
              << ", spatial " << sf.spatialKs << ", volume "
              << sf.volumeKs << ")\n";
    return 0;
}

} // namespace

/**
 * `cchar sweep` — run a whole experiment matrix across worker threads.
 *
 * Dimensions come from a JSON spec file (--spec) and/or CLI lists;
 * CLI dimension flags override the spec file. The aggregate report is
 * deterministic: byte-identical output for any -j value.
 */
/**
 * Graceful-shutdown signal counter. The handler only bumps the
 * counter (async-signal-safe); the sweep engine's monitor thread and
 * drain loops poll it: one signal stops job claiming and drains, a
 * second also cancels in-flight jobs at their next watchdog tick.
 */
std::atomic<int> gSweepSignals{0};

extern "C" void
sweepSignalHandler(int)
{
    int level = gSweepSignals.fetch_add(1, std::memory_order_relaxed);
    // write(2) is on the async-signal-safe list; iostreams are not.
    const char *msg =
        level == 0
            ? "\nsweep: shutdown requested; draining in-flight jobs "
              "(signal again to cancel them)\n"
            : "\nsweep: cancelling in-flight jobs\n";
    ssize_t ignored = ::write(2, msg, std::strlen(msg));
    (void)ignored;
}

/** Installs SIGINT/SIGTERM handlers for the sweep, restores on exit. */
class ScopedSweepSignals
{
  public:
    ScopedSweepSignals()
    {
        gSweepSignals.store(0, std::memory_order_relaxed);
        struct sigaction sa = {};
        sa.sa_handler = sweepSignalHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;
        sigaction(SIGINT, &sa, &oldInt_);
        sigaction(SIGTERM, &sa, &oldTerm_);
    }
    ~ScopedSweepSignals()
    {
        sigaction(SIGINT, &oldInt_, nullptr);
        sigaction(SIGTERM, &oldTerm_, nullptr);
    }

  private:
    struct sigaction oldInt_ = {};
    struct sigaction oldTerm_ = {};
};

int
cmdSweep(int argc, char **argv)
{
    sweep::SweepSpec spec;
    int jobs = 1;
    bool progress = false;
    std::string outPath, csvPath;
    sweep::SweepRunOptions ropts;

    auto value = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc) {
            throw core::CCharError(core::StatusCode::UsageError,
                                   "sweep: " + flag + " needs a value");
        }
        return argv[++i];
    };

    // Pass 1: the spec file seeds the matrix...
    for (int i = 2; i < argc; ++i) {
        if (std::string{argv[i]} == "--spec")
            spec = sweep::SweepSpec::fromJsonFile(value(i, "--spec"));
    }
    // ...pass 2: CLI flags override individual dimensions.
    bool sawFaultPlan = false;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--spec") {
            ++i; // consumed in pass 1
        } else if (arg == "--apps") {
            spec.apps = sweep::parseList(value(i, arg));
        } else if (arg == "--procs") {
            spec.procs.clear();
            for (const std::string &item :
                 sweep::parseList(value(i, arg)))
                spec.procs.push_back(parseNumber<int>("sweep", "procs", item));
        } else if (arg == "--loads") {
            spec.loads.clear();
            for (const std::string &item :
                 sweep::parseList(value(i, arg)))
                spec.loads.push_back(
                    parseNumber<double>("sweep", "load", item));
        } else if (arg == "--seeds") {
            spec.seeds = sweep::parseSeeds(value(i, arg));
        } else if (arg == "--fault-plan") {
            if (!sawFaultPlan) {
                spec.faultPlans.clear();
                sawFaultPlan = true;
            }
            spec.faultPlans.push_back(value(i, arg));
        } else if (arg == "--torus") {
            spec.torus = true;
        } else if (arg == "--vcs") {
            spec.vcs = parseNumber<int>("sweep", arg, value(i, arg));
        } else if (arg == "--rank-activity") {
            spec.rankActivity = true;
        } else if (arg == "--link-stats") {
            spec.linkStats = true;
        } else if (arg == "--synthetic") {
            spec.synthetic = true;
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "-j" || arg == "--jobs" ||
                   arg.rfind("-j", 0) == 0) {
            // Accept both "-j 8" and the make-style joined "-j8".
            std::string count = (arg == "-j" || arg == "--jobs")
                                    ? value(i, arg)
                                    : arg.substr(2);
            jobs = parseNumber<int>("sweep", "-j", count);
            if (jobs < 1) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "sweep: -j needs a positive "
                                       "worker count");
            }
        } else if (arg == "--out") {
            outPath = value(i, arg);
        } else if (arg == "--csv") {
            csvPath = value(i, arg);
        } else if (arg == "--journal") {
            ropts.journalPath = value(i, arg);
        } else if (arg == "--resume") {
            ropts.resumePath = value(i, arg);
        } else if (arg == "--job-timeout") {
            ropts.policy.jobTimeoutSec =
                parseNumber<double>("sweep", arg, value(i, arg));
            if (ropts.policy.jobTimeoutSec <= 0.0) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "sweep: --job-timeout needs a "
                                       "positive number of seconds");
            }
        } else if (arg == "--job-retries") {
            ropts.policy.maxRetries =
                parseNumber<int>("sweep", arg, value(i, arg));
            if (ropts.policy.maxRetries < 0) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "sweep: --job-retries cannot "
                                       "be negative");
            }
        } else if (arg == "--retry-backoff-ms") {
            ropts.policy.backoffMs =
                parseNumber<double>("sweep", arg, value(i, arg));
            if (ropts.policy.backoffMs < 0.0) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "sweep: --retry-backoff-ms "
                                       "cannot be negative");
            }
        } else {
            throw core::CCharError(core::StatusCode::UsageError,
                                   "sweep: unknown option '" + arg +
                                       "'");
        }
    }

    ropts.workers = jobs;
    ropts.progress = progress;
    ropts.shutdown = &gSweepSignals;
    ScopedSweepSignals signalScope;

    sweep::SweepEngine engine{std::move(spec)};
    sweep::SweepResult result = engine.run(ropts);

    if (result.resumedJobs > 0) {
        std::cerr << "sweep: resumed " << result.resumedJobs
                  << " completed job"
                  << (result.resumedJobs == 1 ? "" : "s")
                  << " from journal\n";
    }

    if (result.interrupted) {
        // A partial aggregate would be mistaken for a complete one;
        // the journal already holds everything that finished.
        std::string journalPath = !ropts.journalPath.empty()
                                      ? ropts.journalPath
                                      : ropts.resumePath;
        std::cerr << "sweep: interrupted after "
                  << (result.outcomes.size() -
                      result.interruptedCount())
                  << "/" << result.outcomes.size() << " jobs";
        if (!journalPath.empty()) {
            std::cerr << "; resume with: cchar sweep ... --resume "
                      << journalPath;
        } else {
            std::cerr << " (no --journal: completed work was not "
                         "persisted)";
        }
        std::cerr << "\n";
        return core::exitCodeOf(core::StatusCode::Interrupted);
    }

    if (outPath.empty()) {
        result.writeJson(std::cout);
    } else {
        core::AtomicFileWriter writer{outPath, "sweep"};
        result.writeJson(writer.stream());
        writer.commit();
    }
    if (!csvPath.empty()) {
        core::AtomicFileWriter writer{csvPath, "sweep"};
        result.writeCsv(writer.stream());
        writer.commit();
    }

    std::size_t unverified = 0;
    for (const auto &o : result.outcomes)
        unverified += (o.ok() && !o.verified) ? 1 : 0;
    std::cerr << "sweep: " << result.outcomes.size() << " jobs, "
              << result.failures() << " failed, " << unverified
              << " unverified";
    if (std::size_t q = result.quarantinedCount())
        std::cerr << ", " << q << " quarantined";
    if (std::size_t r = result.retries())
        std::cerr << ", " << r << " retries";
    std::cerr << "\n";
    if (progress) {
        // The wall-clock worker view only ever reaches stderr; the
        // serialized reports keep the matching gauges zeroed so they
        // stay byte-identical across -j (see sweep/engine.cc).
        for (std::size_t w = 0; w < result.workerStats.size(); ++w) {
            const auto &ws = result.workerStats[w];
            std::cerr << "sweep: worker " << w << ": "
                      << ws.jobsCompleted << " jobs, busy "
                      << static_cast<int>(ws.busyFraction * 100.0 + 0.5)
                      << "%\n";
        }
    }
    // Exit-code precedence: a deadline-killed job is the most
    // actionable signal (raise --job-timeout or quarantine the app),
    // so it outranks the generic failure code.
    for (const auto &o : result.outcomes) {
        if (o.status ==
            core::toString(core::StatusCode::DeadlineExceeded))
            return core::exitCodeOf(core::StatusCode::DeadlineExceeded);
    }
    return (result.failures() || unverified) ? 1 : 0;
}

/**
 * `cchar chaos`: seeded chaos campaign over generated fault plans.
 * Exit 0 when the campaign completes (failing plans are the product,
 * not an error) — nonzero only for usage or infrastructure problems.
 */
int
cmdChaos(int argc, char **argv)
{
    sweep::ChaosOptions copts;
    int jobs = 1;
    bool progress = false;
    bool json = false;
    std::string outPath;

    auto value = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc) {
            throw core::CCharError(core::StatusCode::UsageError,
                                   "chaos: " + flag + " needs a value");
        }
        return argv[++i];
    };

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--apps") {
            copts.apps = sweep::parseList(value(i, arg));
        } else if (arg == "--procs") {
            copts.procs = parseNumber<int>("chaos", arg, value(i, arg));
            if (copts.procs < 1) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "chaos: --procs must be >= 1");
            }
        } else if (arg == "--plans") {
            copts.plans = parseNumber<int>("chaos", arg, value(i, arg));
        } else if (arg == "--seed") {
            copts.seed =
                parseNumber<std::uint64_t>("chaos", arg, value(i, arg));
        } else if (arg == "--max-faults") {
            copts.maxFaults = parseNumber<int>("chaos", arg, value(i, arg));
        } else if (arg == "--horizon") {
            copts.horizonUs =
                parseNumber<double>("chaos", arg, value(i, arg));
            if (copts.horizonUs < 2.0) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "chaos: --horizon must be >= 2");
            }
        } else if (arg == "--shrink-budget") {
            copts.shrinkBudget =
                parseNumber<int>("chaos", arg, value(i, arg));
            if (copts.shrinkBudget < 0) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "chaos: --shrink-budget cannot "
                                       "be negative");
            }
        } else if (arg == "--torus") {
            copts.torus = true;
        } else if (arg == "--vcs") {
            copts.vcs = parseNumber<int>("chaos", arg, value(i, arg));
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--out") {
            outPath = value(i, arg);
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "-j" || arg == "--jobs" ||
                   arg.rfind("-j", 0) == 0) {
            std::string count = (arg == "-j" || arg == "--jobs")
                                    ? value(i, arg)
                                    : arg.substr(2);
            jobs = parseNumber<int>("chaos", "-j", count);
            if (jobs < 1) {
                throw core::CCharError(core::StatusCode::UsageError,
                                       "chaos: -j needs a positive "
                                       "worker count");
            }
        } else {
            throw core::CCharError(core::StatusCode::UsageError,
                                   "chaos: unknown option '" + arg +
                                       "'");
        }
    }

    sweep::ChaosHarness harness{copts};
    sweep::ChaosResult result = harness.run(jobs, progress);

    if (outPath.empty()) {
        if (json)
            result.writeJson(std::cout);
        else
            result.print(std::cout);
    } else {
        core::AtomicFileWriter writer{outPath, "chaos"};
        if (json)
            result.writeJson(writer.stream());
        else
            result.print(writer.stream());
        writer.commit();
    }
    std::cerr << "chaos: " << result.jobs.size() << " jobs, "
              << result.failingCount() << " failing plans shrunk\n";
    return 0;
}

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "list") {
        std::cout << "shared-memory (dynamic strategy):\n";
        for (const auto &name : apps::sharedMemoryAppNames())
            std::cout << "  " << name << "\n";
        std::cout << "message-passing (static strategy):\n";
        for (const auto &name : apps::messagePassingAppNames())
            std::cout << "  " << name << "\n";
        return 0;
    }

    if (cmd == "sweep" || cmd == "chaos" || cmd == "synth") {
        try {
            return cmd == "sweep"   ? cmdSweep(argc, argv)
                   : cmd == "chaos" ? cmdChaos(argc, argv)
                                    : cmdSynth(argc, argv);
        } catch (const core::CCharError &err) {
            std::cerr << "error: " << err.what() << "\n";
            return core::exitCodeOf(err.status().code());
        } catch (const std::exception &err) {
            std::cerr << "error: " << err.what() << "\n";
            return core::exitCodeOf(core::StatusCode::SimError);
        }
    }

    if (argc < 3)
        return usage();
    std::string target = argv[2];
    Options opts;

    // Recoverable problems (lenient trace ingest, delivery failures)
    // land here instead of aborting; dumped to stderr on exit.
    core::DiagnosticSink sink;
    core::ScopedDiagnostics diagGuard{&sink};
    auto flushDiagnostics = [&sink] {
        if (!sink.empty())
            sink.writeText(std::cerr);
    };

    try {
        if (!parseOptions(argc, argv, 3, opts))
            return usage();
        int rc = 2;
        if (cmd == "characterize") {
            rc = cmdCharacterize(target, opts);
        } else if (cmd == "report") {
            opts.command = Command::Report;
            rc = cmdCharacterize(target, opts);
        } else if (cmd == "trace") {
            rc = cmdTrace(target, opts);
        } else if (cmd == "replay") {
            opts.command = Command::Replay;
            rc = cmdReplay(target, opts);
        } else {
            return usage();
        }
        flushDiagnostics();
        return rc;
    } catch (const desim::WatchdogError &err) {
        flushDiagnostics();
        std::cerr << "error: " << err.what() << "\n";
        return core::exitCodeOf(core::StatusCode::WatchdogTrip);
    } catch (const core::CCharError &err) {
        flushDiagnostics();
        std::cerr << "error: " << err.what() << "\n";
        return core::exitCodeOf(err.status().code());
    } catch (const std::exception &err) {
        flushDiagnostics();
        std::cerr << "error: " << err.what() << "\n";
        return core::exitCodeOf(core::StatusCode::SimError);
    }
}
