/**
 * @file
 * cchar — command-line driver for the characterization tool chain.
 *
 * Subcommands (usage() spells out their flags, README documents them):
 *   list                             show available applications
 *   characterize <app> [options]     run + print the full report
 *   report <app> [options]           run + write the HTML run report
 *                                    to --out FILE (default stdout)
 *   trace <mp-app> --out FILE        collect an SP2-style trace
 *   replay <FILE> [options]          replay a trace into a mesh
 *   synth <MODEL.json> [options]     drive the mesh with synthetic
 *                                    traffic drawn from a saved
 *                                    characterization, re-characterize
 *                                    it and report per-attribute model
 *                                    fidelity
 *   sweep [options]                  run a job matrix on a worker
 *                                    pool, merge deterministically
 *   chaos [options]                  seeded chaos campaign over
 *                                    generated fault plans
 *
 * Every flag is one entry of flagTable(), which names the subcommands
 * that take it; the Options field it sets says what it means.
 *
 * Exit codes:
 *   0  success
 *   1  analysis or application-verification failure
 *   2  usage error (bad command line or a flag value out of range)
 *   3  input error (malformed trace or fault plan, missing file)
 *   4  simulation error (deadlock, delivery failure wedge...)
 *   5  no-progress watchdog tripped
 *   6  a sweep job exceeded its deadline (after exhausting its
 *      retries) and was quarantined
 *   7  interrupted by SIGINT/SIGTERM; a journaled sweep can be
 *      continued with --resume
 */

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "fault/injector.hh"
#include "obs/obs.hh"

#include "apps/registry.hh"
#include "core/core.hh"
#include "sweep/chaos.hh"
#include "sweep/engine.hh"

namespace {

using namespace cchar;

/**
 * The subcommands, one bit each. An Options set belongs to one, which
 * selects its output; a flag's mask names every subcommand taking it.
 */
enum Command : unsigned
{
    Characterize = 1 << 0,
    Report = 1 << 1,
    Replay = 1 << 2,
    Trace = 1 << 3,
    Synth = 1 << 4,
    Sweep = 1 << 5,
    Chaos = 1 << 6,
    /** The subcommands that run one application or trace. */
    Run = Characterize | Report | Replay | Trace,
};

/** Every flag value of one invocation; each subcommand reads its own. */
struct Options
{
    Command command = Command::Characterize;
    /** The operand: the application, trace file or model path. */
    std::string target;

    /** Network dimensions and topology (a torus takes 2+ VCs). */
    int width = 4;
    int height = 4;
    bool torus = false;
    /** Virtual channels; unset keeps 1 or a sweep spec file's value. */
    std::optional<int> vcs;

    /** Report as JSON instead of text. */
    bool json = false;
    /** Where the subcommand's main output goes ("" = stdout). */
    std::string out;
    /** Detect execution phases and characterize each one. */
    bool phases = false;
    /** Write the self-contained HTML run report (implies phases). */
    std::string reportOut;
    /** Write the metrics registry, telemetry and message lifecycles. */
    std::string metricsOut;
    /** Record per-rank timelines and report desynchronization. */
    bool rankActivity = false;
    /** Record per-link utilization and report the network weather. */
    bool linkStats = false;
    /** Ranked links/routers kept in the network-weather output. */
    int topLinks = 16;

    /** Worker threads of a sweep or chaos campaign. */
    int jobs = 1;
    /** Periodic progress line on stderr (sweep: done/total + ETA). */
    bool progress = false;

    /** Print a windowed phase profile of this many windows. */
    int windows = 0;
    /** Also run the fitted synthetic model and report validation. */
    bool synthetic = false;
    /** Write a Chrome trace-event JSON with message flow arrows. */
    std::string traceOut;
    /** Telemetry sampling period in simulated microseconds. */
    double samplePeriodUs = 50.0;
    /** Run under this fault plan, SPEC or @FILE ("" = fault-free). */
    std::string faultPlan;
    /** Fault-aware adaptive routing (off with --no-reroute). */
    bool reroute = true;
    /** The fault-plan, synth or chaos seed; unset keeps theirs. */
    std::optional<std::uint64_t> seed;
    /** Malformed trace records abort (strict) or are skipped. */
    trace::ErrorMode traceErrors = trace::ErrorMode::Strict;
    /** No-progress check period and stalls, and a sim-time horizon. */
    desim::WatchdogConfig watchdog{};

    core::SynthRunOptions synth{};
    /** Re-project the model onto this many processors (0 = as is). */
    int scaleProcs = 0;
    /** Message budget of the synthetic run (0 = the model's). */
    std::uint64_t messages = 0;

    /** Sweep dimensions; a given one overrides the spec file's. */
    std::string specPath;
    std::optional<std::vector<std::string>> apps;
    std::optional<std::vector<int>> procs;
    std::optional<std::vector<double>> loads;
    std::optional<std::vector<std::uint64_t>> seeds;
    std::vector<std::string> faultPlans;
    std::string csvPath;
    sweep::SweepRunOptions sweepRun{};

    sweep::ChaosOptions chaos{};

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
        cfg.virtualChannels = std::max(opts.vcs.value_or(1), 2);
    } else {
        cfg.virtualChannels = opts.vcs.value_or(1);
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

    /** Write the trace and metrics files that were asked for. */
    void finish()
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

core::CCharError
usageError(const std::string &cmd, const std::string &what)
{
    return core::CCharError(core::StatusCode::UsageError, cmd + ": " + what);
}

/** One flag as given: the subcommand, the flag's spelling, its value. */
struct Arg
{
    const std::string &cmd;
    const std::string &flag;
    const std::string &value;
};

core::CCharError
badValue(const Arg &arg)
{
    return usageError(arg.cmd,
                      "bad " + arg.flag + " value '" + arg.value + "'");
}

/**
 * The whole of the value as a T (an integer type or double). Trailing
 * characters, a sign an unsigned T cannot hold, or a value out of T's
 * range are a usage error: "<cmd>: bad <flag> value '<text>'".
 */
template <typename T>
T
parseNumber(const Arg &arg)
{
    T v{};
    const char *last = arg.value.data() + arg.value.size();
    auto [end, ec] = std::from_chars(arg.value.data(), last, v);
    if (ec != std::errc{} || end != last)
        throw badValue(arg);
    return v;
}

/** One flag: its spelling, the subcommands that take it, its effect. */
struct Flag
{
    const char *name;
    unsigned commands;
    /** Consumes the next argument (or a joined "-jN" rest). */
    bool takesValue;
    /** Stores the value. @throws core::CCharError UsageError. */
    std::function<void(const Arg &)> apply;
    /** A second spelling of the same flag, or nullptr. */
    const char *alias = nullptr;
};

/** A switch: sets @p slot to @p to. */
template <typename T>
Flag
toggle(const char *name, unsigned commands, T &slot, T to = true)
{
    return {name, commands, false, [&slot, to](const Arg &) { slot = to; }};
}

Flag
text(const char *name, unsigned commands, std::string &slot)
{
    return {name, commands, true,
            [&slot](const Arg &arg) { slot = arg.value; }};
}

/** The value type of a number slot: T or std::optional<T>. */
template <typename T>
T valueOf(T *);
template <typename T>
T valueOf(std::optional<T> *);

/**
 * A number, checked against @p bound when given: ">= N" or "> N". A
 * value out of bounds is "<cmd>: <flag> must be <bound>".
 */
template <typename Slot>
Flag
number(const char *name, unsigned commands, Slot &slot,
       const char *bound = nullptr, const char *alias = nullptr)
{
    return {name, commands, true,
            [&slot, bound](const Arg &arg) {
                auto v = parseNumber<decltype(valueOf(&slot))>(arg);
                const double x = static_cast<double>(v);
                const bool strict = bound && bound[1] != '=';
                if (bound && !(strict ? x > std::atof(bound + 1)
                                      : x >= std::atof(bound + 2)))
                    throw usageError(arg.cmd, arg.flag + " must be " + bound);
                slot = v;
            },
            alias};
}

/** A comma-separated list of numbers. */
template <typename T>
Flag
numbers(const char *name, unsigned commands,
        std::optional<std::vector<T>> &slot)
{
    return {name, commands, true, [&slot](const Arg &arg) {
                slot.emplace();
                for (const std::string &item : sweep::parseList(arg.value))
                    slot->push_back(parseNumber<T>({arg.cmd, arg.flag, item}));
            }};
}

/**
 * Every flag of every subcommand, each declared once: a flag shared by
 * several subcommands names them all in its mask.
 */
std::vector<Flag>
flagTable(Options &o)
{
    sweep::JobPolicy &policy = o.sweepRun.policy;
    return {
        // Network shape.
        number("--width", Run, o.width, ">= 1"),
        number("--height", Run, o.height, ">= 1"),
        toggle("--torus", Run | Sweep | Chaos, o.torus),
        number("--vcs", Run | Sweep | Chaos, o.vcs, ">= 1"),
        // Output and sinks.
        toggle("--json", Run | Synth | Chaos, o.json),
        text("--out", Run | Synth | Sweep | Chaos, o.out),
        toggle("--phases", Run | Synth, o.phases),
        text("--report-out", Run | Synth, o.reportOut),
        text("--metrics-out", Run | Synth, o.metricsOut),
        toggle("--rank-activity", Run | Synth | Sweep, o.rankActivity),
        toggle("--link-stats", Run | Synth | Sweep, o.linkStats),
        number("--top-links", Run | Synth, o.topLinks, ">= 1"),
        // Worker pool.
        number("-j", Sweep | Chaos, o.jobs, ">= 1", "--jobs"),
        toggle("--progress", Run | Sweep | Chaos, o.progress),
        // One application or trace.
        number("--windows", Run, o.windows, ">= 0"),
        toggle("--synthetic", Run | Sweep, o.synthetic),
        text("--trace-out", Run, o.traceOut),
        number("--sample-period", Run, o.samplePeriodUs, "> 0"),
        {"--fault-plan", Run, true,
         [&o](const Arg &arg) {
             if (arg.value.empty())
                 throw badValue(arg);
             o.faultPlan = arg.value;
         }},
        toggle("--no-reroute", Run, o.reroute, false),
        number("--seed", Run | Synth | Chaos, o.seed),
        {"--trace-errors", Run, true,
         [&o](const Arg &arg) {
             if (arg.value != "strict" && arg.value != "skip")
                 throw badValue(arg);
             o.traceErrors = arg.value == "skip" ? trace::ErrorMode::Lenient
                                                 : trace::ErrorMode::Strict;
         }},
        toggle("--strict", Run, o.traceErrors, trace::ErrorMode::Strict),
        toggle("--lenient", Run, o.traceErrors, trace::ErrorMode::Lenient),
        number("--watchdog-period", Run, o.watchdog.checkPeriodUs, "> 0"),
        number("--watchdog-stalls", Run, o.watchdog.stallChecks, ">= 1"),
        number("--max-sim-time", Run, o.watchdog.maxSimTimeUs, ">= 0"),
        // synth.
        number("--scale-procs", Synth, o.scaleProcs, ">= 1"),
        number("--messages", Synth, o.messages),
        number("--time-scale", Synth, o.synth.timeScale, "> 0"),
        number("--max-outstanding", Synth, o.synth.maxOutstanding, ">= 0"),
        toggle("--use-phases", Synth, o.synth.usePhases),
        // sweep.
        text("--spec", Sweep, o.specPath),
        {"--apps", Sweep | Chaos, true,
         [&o](const Arg &arg) { o.apps = sweep::parseList(arg.value); }},
        numbers("--procs", Sweep, o.procs),
        numbers("--loads", Sweep, o.loads),
        {"--seeds", Sweep, true,
         [&o](const Arg &arg) { o.seeds = sweep::parseSeeds(arg.value); }},
        {"--fault-plan", Sweep, true,
         [&o](const Arg &arg) { o.faultPlans.push_back(arg.value); }},
        text("--csv", Sweep, o.csvPath),
        text("--journal", Sweep, o.sweepRun.journalPath),
        text("--resume", Sweep, o.sweepRun.resumePath),
        number("--job-timeout", Sweep, policy.jobTimeoutSec, "> 0"),
        number("--job-retries", Sweep, policy.maxRetries, ">= 0"),
        number("--retry-backoff-ms", Sweep, policy.backoffMs, ">= 0"),
        // chaos.
        number("--plans", Chaos, o.chaos.plans),
        number("--procs", Chaos, o.chaos.procs, ">= 1"),
        number("--max-faults", Chaos, o.chaos.maxFaults),
        number("--horizon", Chaos, o.chaos.horizonUs, ">= 2"),
        number("--shrink-budget", Chaos, o.chaos.shrinkBudget, ">= 0"),
    };
}

/** A subcommand: its name, the operand it takes and its body. */
struct Subcommand
{
    const char *name;
    Command command;
    /** What the operand names ("a trace file"), or nullptr for none. */
    const char *operand;
    int (*run)(const Options &);
};

/**
 * The options of `cchar <cmd> [operand] [flags]`: the one parse loop of
 * every subcommand.
 * @throws core::CCharError UsageError "<cmd>: ..." on a missing
 *         operand, an unknown flag, a missing or a bad value.
 */
Options
parseOptions(const Subcommand &sub, int argc, char **argv)
{
    Options o;
    o.command = sub.command;
    const std::string cmd = sub.name;
    int i = 2;
    if (sub.operand) {
        if (argc < 3 || argv[2][0] == '-')
            throw usageError(cmd, std::string{"needs "} + sub.operand);
        o.target = argv[i++];
    }
    const std::vector<Flag> flags = flagTable(o);
    auto find = [&](const std::string &name) -> const Flag * {
        for (const Flag &f : flags) {
            if ((f.commands & sub.command) &&
                (name == f.name || (f.alias && name == f.alias)))
                return &f;
        }
        return nullptr;
    };
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string name = arg;
        std::string value;
        const Flag *flag = find(arg);
        if (!flag && arg.size() > 2 && arg[0] == '-' && arg[1] != '-') {
            // The make-style joined short form: "-j8" is "-j 8".
            name = arg.substr(0, 2);
            value = arg.substr(2);
            flag = find(name);
        }
        if (!flag || (name != arg && !flag->takesValue))
            throw usageError(cmd, "unknown option: " + arg);
        if (flag->takesValue && name == arg) {
            if (i + 1 >= argc)
                throw usageError(cmd, arg + " needs a value");
            value = argv[++i];
        }
        flag->apply({cmd, name, value});
    }
    return o;
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
    if (opts.seed)
        plan.setSeed(*opts.seed);
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

/** Run @p write on an atomic writer of @p path, or on stdout if "". */
template <typename Write>
void
writeOut(const std::string &path, const char *context, Write write)
{
    if (path.empty())
        return write(std::cout);
    core::AtomicFileWriter writer{path, context};
    write(writer.stream());
    writer.commit();
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
    obsSession.finish();

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
    // Of these subcommands only synth writes its report to --out.
    writeOut(opts.command == Command::Synth ? opts.out : "", "synth",
             [&](std::ostream &os) {
                 if (opts.json)
                     report.writeJson(os);
                 else
                     report.print(os);
             });
    // A replayed trace has no application to verify.
    if (!report.verified && opts.command != Command::Replay) {
        std::cerr << "WARNING: application verification FAILED\n";
        return 1;
    }
    // The text phase profile would trail the JSON document and break
    // `python3 -m json.tool` style consumers, so it is text-mode only.
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

/**
 * `characterize`, `report` and `replay`: run an application (or replay
 * a trace) under the requested network, faults and watchdog, and
 * report on it.
 */
int
cmdRun(const Options &opts)
{
    const std::string &name = opts.target;
    ObsSession obsSession{opts};
    // The injector registers its fault.* metrics at construction, so
    // it must come after the ObsSession installs the registry.
    std::optional<fault::FaultInjector> injector;
    if (opts.faulted())
        injector.emplace(loadFaultPlan(opts));
    core::RunSpec spec;
    spec.machine.mesh = meshOf(opts);
    spec.mp.mesh = spec.machine.mesh;
    spec.faults = injector ? &*injector : nullptr;
    spec.watchdog = opts.watchdog;
    spec.application = name;
    trace::Trace t;
    std::unique_ptr<apps::SharedMemoryApp> app;
    std::unique_ptr<apps::MessagePassingApp> mpApp;
    if (opts.command == Command::Replay) {
        trace::TraceLoadOptions lopts;
        lopts.errors = opts.traceErrors;
        t = trace::Trace::loadFile(name, lopts);
        if (t.skippedRecords() > 0) {
            std::cerr << "warning: skipped " << t.skippedRecords()
                      << " malformed trace record"
                      << (t.skippedRecords() == 1 ? "" : "s") << "\n";
        }
        spec.trace = &t;
    } else {
        app = makeSharedMemoryApp(name);
        mpApp = app ? nullptr : makeMessagePassingApp(name);
        if (!app && !mpApp) {
            std::cerr << "unknown application: " << name << "\n";
            return usage();
        }
        spec.sharedMemoryApp = app.get();
        spec.messagePassingApp = mpApp.get();
        if (opts.progress) {
            spec.onAppSimulator = [&opts](desim::Simulator &sim) {
                attachProgress(sim, opts.samplePeriodUs * 10.0);
            };
        }
    }
    return emitRun(opts, obsSession,
                   core::runCharacterization(
                       spec, pipelineOptions(opts, obsSession)));
}

int
cmdTrace(const Options &opts)
{
    const std::string &name = opts.target;
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

/**
 * `cchar synth` — model-driven traffic replay at arbitrary scale.
 *
 * Loads a characterization JSON (the JSON report of `characterize`),
 * optionally re-projects it onto a larger topology (--scale-procs) and
 * a larger message budget (--messages), drives the mesh simulator with
 * seeded draws from the fitted distributions, re-characterizes the
 * synthetic traffic, and reports the per-attribute KS divergence
 * between the model and what it produced — the closed loop of the
 * methodology. Deterministic: identical inputs produce byte-identical
 * output.
 */
int
cmdSynth(const Options &opts)
{
    const std::string &modelPath = opts.target;
    core::SynthRunOptions ropts = opts.synth;
    ropts.seed = opts.seed.value_or(ropts.seed);

    core::SyntheticModel model =
        core::SyntheticModel::fromJsonFile(modelPath);
    const int origProcs = model.nprocs;
    const int origNodes = model.mesh.nodes();
    const std::size_t origTotal = model.totalMessages();
    if (opts.scaleProcs > 0 || opts.messages > 0)
        model = model.scaleTo(opts.scaleProcs, opts.messages);

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

/**
 * `cchar sweep` — run a whole experiment matrix across worker threads.
 *
 * Dimensions come from a JSON spec file and/or CLI lists; CLI
 * dimension flags override the spec file. The aggregate report is
 * deterministic: byte-identical output for any worker count.
 */
int
cmdSweep(const Options &opts)
{
    sweep::SweepSpec spec;
    if (!opts.specPath.empty())
        spec = sweep::SweepSpec::fromJsonFile(opts.specPath);
    // CLI flags override individual dimensions of the spec file.
    spec.apps = opts.apps.value_or(spec.apps);
    spec.procs = opts.procs.value_or(spec.procs);
    spec.loads = opts.loads.value_or(spec.loads);
    spec.seeds = opts.seeds.value_or(spec.seeds);
    spec.vcs = opts.vcs.value_or(spec.vcs);
    if (!opts.faultPlans.empty())
        spec.faultPlans = opts.faultPlans;
    spec.torus = spec.torus || opts.torus;
    spec.rankActivity = spec.rankActivity || opts.rankActivity;
    spec.linkStats = spec.linkStats || opts.linkStats;
    spec.synthetic = spec.synthetic || opts.synthetic;

    sweep::SweepRunOptions ropts = opts.sweepRun;
    ropts.workers = opts.jobs;
    ropts.progress = opts.progress;
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

    writeOut(opts.out, "sweep",
             [&](std::ostream &os) { result.writeJson(os); });
    if (!opts.csvPath.empty()) {
        writeOut(opts.csvPath, "sweep",
                 [&](std::ostream &os) { result.writeCsv(os); });
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
    if (opts.progress) {
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
cmdChaos(const Options &opts)
{
    sweep::ChaosOptions copts = opts.chaos;
    copts.seed = opts.seed.value_or(copts.seed);
    copts.apps = opts.apps.value_or(copts.apps);
    copts.vcs = opts.vcs.value_or(copts.vcs);
    copts.torus = opts.torus;

    sweep::ChaosHarness harness{copts};
    sweep::ChaosResult result = harness.run(opts.jobs, opts.progress);

    writeOut(opts.out, "chaos", [&](std::ostream &os) {
        if (opts.json)
            result.writeJson(os);
        else
            result.print(os);
    });
    std::cerr << "chaos: " << result.jobs.size() << " jobs, "
              << result.failingCount() << " failing plans shrunk\n";
    return 0;
}

const Subcommand kSubcommands[] = {
    {"characterize", Command::Characterize, "an application", cmdRun},
    {"report", Command::Report, "an application", cmdRun},
    {"trace", Command::Trace, "a message-passing application", cmdTrace},
    {"replay", Command::Replay, "a trace file", cmdRun},
    {"synth", Command::Synth, "a model JSON path", cmdSynth},
    {"sweep", Command::Sweep, nullptr, cmdSweep},
    {"chaos", Command::Chaos, nullptr, cmdChaos},
};

} // namespace

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

    const Subcommand *sub = nullptr;
    for (const Subcommand &s : kSubcommands) {
        if (cmd == s.name)
            sub = &s;
    }
    if (!sub)
        return usage();

    // Recoverable problems (lenient trace ingest, delivery failures)
    // land here instead of aborting; dumped to stderr on exit.
    core::DiagnosticSink sink;
    core::ScopedDiagnostics diagGuard{&sink};
    int rc = 0;
    std::string error;
    try {
        rc = sub->run(parseOptions(*sub, argc, argv));
    } catch (const desim::WatchdogError &err) {
        error = err.what();
        rc = core::exitCodeOf(core::StatusCode::WatchdogTrip);
    } catch (const core::CCharError &err) {
        error = err.what();
        rc = core::exitCodeOf(err.status().code());
    } catch (const std::exception &err) {
        error = err.what();
        rc = core::exitCodeOf(core::StatusCode::SimError);
    }
    if (!sink.empty())
        sink.writeText(std::cerr);
    if (!error.empty())
        std::cerr << "error: " << error << "\n";
    return rc;
}
