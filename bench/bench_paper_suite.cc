/**
 * @file
 * The paper's evaluation as views of one suite run.
 *
 * The paper derives every table from one network log per application.
 * So does this program: it characterizes each of the seven paper
 * applications once — the five shared-memory apps on the 16-processor
 * 4x4-mesh CC-NUMA machine (dynamic strategy), the two NAS apps on 8
 * ranks with the SP2 software model, replayed into a 4x2 mesh (static
 * strategy) — and renders every section from those seven runs:
 *
 *   T1    application suite and communication volume
 *   T2    inter-arrival time fits, shared-memory suite
 *   T3    inter-arrival time fits, message-passing suite
 *   T4    spatial pattern classification
 *   T5    volume attribute: message count and length distribution
 *   F-IA  inter-arrival CDFs, empirical vs fitted
 *   F-SP  fraction of messages p0/p1 send to each destination
 *   F-PH  windowed inter-arrival analysis (phase structure)
 *   F-LS  latency vs offered load, uniform assumption vs fitted IS
 *   M1    analytical wormhole model vs simulation
 *   V1    synthetic-model validation
 *
 * Each section renders into its own stream, so formatting state never
 * leaks from one table into the next; one blank line separates them.
 * EXPERIMENTS.md quotes the output verbatim (ctest experiments_doc).
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common.hh"

namespace {

using namespace cchar;

using Suite = std::vector<core::RunResult>;

/** The paper's applications, shared-memory first. */
const char *const kPaperApps[] = {"1d-fft", "is",     "cholesky", "maxflow",
                                  "nbody",  "3d-fft", "mg"};

/** Characterize each paper application once on its standard machine. */
Suite
runSuite()
{
    Suite suite;
    for (const std::string name : kPaperApps) {
        auto sharedMemory = apps::makeSharedMemoryApp(name);
        auto messagePassing =
            sharedMemory ? nullptr : apps::makeMessagePassingApp(name);
        core::RunSpec spec;
        spec.sharedMemoryApp = sharedMemory.get();
        spec.messagePassingApp = messagePassing.get();
        spec.application = name;
        spec.machine = bench::standardMachine();
        spec.mp = bench::standardWorld();
        suite.push_back(core::runCharacterization(spec, {}));
    }
    return suite;
}

const core::RunResult &
find(const Suite &suite, const std::string &app)
{
    for (const auto &run : suite)
        if (run.report.application == app)
            return run;
    throw std::logic_error("not in the suite: " + app);
}

/**
 * T1 — one row per application: strategy, processors, verified
 * result, message count, byte volume, mean message length, mean
 * inter-arrival time and its CV.
 */
void
table1(std::ostream &os, const Suite &suite)
{
    os << "T1: application suite and communication volume\n";
    os << "(shared memory: 16-proc 4x4 mesh CC-NUMA, dynamic "
          "strategy;\n message passing: 8 ranks, SP2 software "
          "model, static strategy)\n\n";
    os << std::left << std::setw(10) << "app" << std::setw(9) << "strategy"
       << std::right << std::setw(6) << "procs" << std::setw(5) << "ok"
       << std::setw(10) << "msgs" << std::setw(12) << "bytes"
       << std::setw(10) << "len(B)" << std::setw(10) << "IAT(us)"
       << std::setw(7) << "CV"
       << "\n";
    os << std::string(79, '-') << "\n";
    for (const auto &run : suite) {
        const auto &r = run.report;
        os << std::left << std::setw(10) << r.application << std::setw(9)
           << core::toString(r.strategy) << std::right << std::setw(6)
           << r.nprocs << std::setw(5) << (r.verified ? "yes" : "NO")
           << std::setw(10) << r.volume.messageCount << std::setw(12)
           << std::fixed << std::setprecision(0) << r.volume.totalBytes
           << std::setw(10) << std::setprecision(1)
           << r.volume.lengthStats.mean << std::setw(10)
           << std::setprecision(3) << r.temporalAggregate.stats.mean
           << std::setw(7) << std::setprecision(2)
           << r.temporalAggregate.stats.cv << "\n";
    }
}

/**
 * T2/T3 — the fitted inter-arrival distributions of one strategy's
 * applications ("the message generation ... can be expressed in terms
 * of commonly used distributions"): the aggregate fit, then up to
 * `maxSources` per-processor fits per application.
 */
void
fitTable(std::ostream &os, const Suite &suite, const char *id,
         core::Strategy strategy, int meanWidth, int meanDigits,
         std::size_t maxSources)
{
    const bool dynamic = strategy == core::Strategy::Dynamic;
    os << id << ": inter-arrival time distribution fits, "
       << (dynamic ? "shared-memory suite (dynamic strategy)"
                   : "message-passing suite (static strategy)")
       << "\n\n";
    os << std::left << std::setw(10) << "app" << std::setw(6) << "src"
       << std::right << std::setw(7) << "n" << std::setw(meanWidth)
       << "mean(us)" << std::setw(7) << "CV"
       << "  " << std::left << std::setw(44) << "best fit" << std::right
       << std::setw(7) << "R2" << std::setw(8) << "KS"
       << "\n";
    os << std::string(89 + meanWidth, '-') << "\n";

    auto row = [&](const std::string &app, const core::TemporalFit &fit) {
        os << std::left << std::setw(10) << app << std::setw(6)
           << (fit.source < 0 ? std::string{"all"}
                              : "p" + std::to_string(fit.source))
           << std::right << std::setw(7) << fit.stats.count
           << std::setw(meanWidth) << std::fixed
           << std::setprecision(meanDigits) << fit.stats.mean
           << std::setw(7) << std::setprecision(2) << fit.stats.cv << "  "
           << std::left << std::setw(44)
           << (fit.fit.dist ? fit.fit.dist->describe() : std::string{"-"})
           << std::right << std::setw(7) << std::setprecision(4)
           << fit.fit.gof.r2 << std::setw(8) << fit.fit.gof.ks << "\n";
    };
    for (const auto &run : suite) {
        const auto &report = run.report;
        if (report.strategy != strategy)
            continue;
        row(report.application, report.temporalAggregate);
        const std::size_t shown =
            std::min(maxSources, report.temporalPerSource.size());
        for (std::size_t i = 0; i < shown; ++i)
            row(report.application, report.temporalPerSource[i]);
        os << "\n";
    }
}

void
table2(std::ostream &os, const Suite &suite)
{
    fitTable(os, suite, "T2", core::Strategy::Dynamic, 10, 4, 4);
}

void
table3(std::ostream &os, const Suite &suite)
{
    fitTable(os, suite, "T3", core::Strategy::Static, 11, 3,
             std::numeric_limits<std::size_t>::max());
}

/**
 * T4 — spatial classification against the paper's simple models
 * (uniform, "bimodal uniform", single destination, general): the
 * aggregate class, per-pattern source counts and the locality profile
 * (mean hops, fraction at 1 hop).
 */
void
table4(std::ostream &os, const Suite &suite)
{
    using stats::SpatialPattern;
    os << "T4: spatial pattern classification "
          "(per-source destination distributions)\n\n";
    os << std::left << std::setw(10) << "app" << std::setw(20)
       << "aggregate pattern" << std::right << std::setw(9) << "uniform"
       << std::setw(9) << "bimodal" << std::setw(9) << "single"
       << std::setw(9) << "general" << std::setw(10) << "avgHops"
       << std::setw(9) << "1-hop"
       << "\n";
    os << std::string(85, '-') << "\n";
    for (const auto &run : suite) {
        const auto &report = run.report;
        std::map<SpatialPattern, int> counts;
        for (const auto &sf : report.spatialPerSource)
            ++counts[sf.classification.pattern];
        os << std::left << std::setw(10) << report.application
           << std::setw(20) << stats::toString(report.spatialAggregate.pattern)
           << std::right << std::setw(9) << counts[SpatialPattern::Uniform]
           << std::setw(9) << counts[SpatialPattern::BimodalUniform]
           << std::setw(9) << counts[SpatialPattern::SingleDestination]
           << std::setw(9) << counts[SpatialPattern::General]
           << std::setw(10) << std::fixed << std::setprecision(2)
           << report.network.avgHops << std::setw(9) << std::setprecision(2)
           << (report.hopDistancePmf.size() > 1 ? report.hopDistancePmf[1]
                                                : 0.0)
           << "\n";
    }
}

/**
 * T5 — the volume attribute: "volume of communication is specified by
 * the number of messages and the message length distribution".
 */
void
table5(std::ostream &os, const Suite &suite)
{
    os << "T5: volume attribute — message count and length "
          "distribution\n\n";
    os << std::left << std::setw(10) << "app" << std::right << std::setw(9)
       << "msgs" << std::setw(12) << "bytes" << std::setw(9) << "mean(B)"
       << std::setw(8) << "min" << std::setw(8) << "max" << std::setw(9)
       << "src-min" << std::setw(9) << "src-max"
       << "   length pmf\n";
    os << std::string(110, '-') << "\n";
    for (const auto &run : suite) {
        const auto &v = run.report.volume;
        double minCount = 1e300, maxCount = 0.0;
        for (double c : v.perSourceCounts) {
            if (c > 0.0) {
                minCount = std::min(minCount, c);
                maxCount = std::max(maxCount, c);
            }
        }
        os << std::left << std::setw(10) << run.report.application
           << std::right << std::setw(9) << v.messageCount << std::setw(12)
           << std::fixed << std::setprecision(0) << v.totalBytes
           << std::setw(9) << std::setprecision(1) << v.lengthStats.mean
           << std::setw(8) << static_cast<int>(v.lengthStats.min)
           << std::setw(8) << static_cast<int>(v.lengthStats.max)
           << std::setw(9) << std::setprecision(0) << minCount
           << std::setw(9) << maxCount << "   ";
        for (const auto &[bytes, prob] : v.lengthPmf) {
            os << bytes << "B:" << std::setprecision(2) << std::fixed << prob
               << " ";
        }
        os << "\n";
    }
}

/**
 * F-IA — the per-application inter-arrival distribution figures:
 * empirical CDF points of the aggregate arrival process against the
 * fitted CDF for two representative applications, and the fitted CDF
 * over [0, p99] for the rest of the suite (maxflow left out).
 */
void
figInterarrival(std::ostream &os, const Suite &suite)
{
    os << "F-IA: inter-arrival time CDFs (empirical vs fitted) "
          "per application\n\n";
    for (const char *name : {"1d-fft", "is"}) {
        auto gaps = find(suite, name).drive.log.interArrivalTimes();
        stats::Ecdf ecdf{gaps};
        auto best = stats::DistributionFitter{}.bestFit(gaps);
        os << "# " << name << " — " << gaps.size() << " samples, fit "
           << best.dist->describe() << " R2=" << best.gof.r2 << "\n";
        os << "# x(us)  F_empirical  F_fitted\n";
        for (const auto &[x, f] : ecdf.regressionPoints(25)) {
            os << std::fixed << std::setprecision(5) << std::setw(9) << x
               << "  " << std::setw(11) << f << "  " << std::setw(9)
               << best.dist->cdf(x) << "\n";
        }
        os << "\n";
    }
    for (const char *name : {"cholesky", "nbody", "3d-fft", "mg"}) {
        const auto &report = find(suite, name).report;
        const auto &fit = report.temporalAggregate;
        os << "# " << report.application << " — aggregate "
           << "inter-arrival time, fit: " << fit.fit.dist->describe()
           << " (R2=" << fit.fit.gof.r2 << ")\n";
        os << "# x(us)  F_empirical  F_fitted\n";
        double xMax =
            fit.stats.p99 > 0.0 ? fit.stats.p99 : fit.stats.mean * 3.0;
        for (int i = 1; i <= 20; ++i) {
            double x = xMax * static_cast<double>(i) / 20.0;
            os << std::fixed << std::setprecision(5) << std::setw(9) << x
               << "  " << std::setw(11) << "-"
               << "  " << std::setw(9) << fit.fit.dist->cdf(x) << "\n";
        }
        os << "\n";
    }
}

/**
 * F-SP — "fraction of messages sent by a processor to others in the
 * system": the destination distributions of p0 and p1 of every
 * application against their classification's model.
 */
void
figSpatial(std::ostream &os, const Suite &suite)
{
    auto source = [&os](const core::CharacterizationReport &report, int src) {
        for (const auto &sf : report.spatialPerSource) {
            if (sf.source != src)
                continue;
            os << "# " << report.application << " p" << src << " — "
               << sf.classification.describe() << "\n";
            os << "# dest  fraction  model\n";
            for (std::size_t d = 0; d < sf.observed.size(); ++d) {
                os << "  " << std::setw(4) << d << std::setw(10) << std::fixed
                   << std::setprecision(4) << sf.observed[d] << std::setw(10)
                   << sf.classification.model[d] << "\n";
            }
            os << "\n";
            return;
        }
        os << "# " << report.application << " p" << src
           << " — no traffic\n\n";
    };
    os << "F-SP: spatial distribution — fraction of messages "
          "sent by p0/p1 to each destination\n\n";
    for (const auto &run : suite) {
        source(run.report, 0);
        source(run.report, 1);
    }
}

/**
 * F-PH — phase structure of the message generation ("there are three
 * main phases in the execution [of 1D-FFT]"): each run's log sliced
 * into 8 equal time windows, the arrival process fitted per window.
 * Phase boundaries show as sharp changes in rate and winning family.
 */
void
figPhases(std::ostream &os, const Suite &suite)
{
    os << "F-PH: windowed inter-arrival analysis (8 windows "
          "per run)\n\n";
    for (const char *name : {"1d-fft", "nbody", "is"}) {
        const auto &log = find(suite, name).drive.log;
        auto windows = core::TemporalAnalyzer{}.analyzeWindows(log, 8);
        os << "# " << name << "\n";
        os << "# win     msgs   rate(/us)      CV  family\n";
        for (const auto &w : windows) {
            double rate = w.stats.mean > 0.0 ? 1.0 / w.stats.mean : 0.0;
            os << "  " << std::setw(3) << w.source << std::setw(9)
               << (w.stats.count + 1) << std::setw(12) << std::fixed
               << std::setprecision(3) << rate << std::setw(8)
               << std::setprecision(2) << w.stats.cv << "  "
               << (w.fit.dist ? w.fit.dist->name() : std::string{"(sparse)"})
               << "\n";
        }
        os << "\n";
    }
    os << "Expected shape: rate swings across windows follow "
          "the applications' compute/communicate phases.\n";
}

/**
 * F-LS — why the uniform-traffic assumption misleads ("the most
 * critical one being the uniform traffic assumption"): a load sweep of
 * the classical model — exponential gaps, uniform destinations, fixed
 * length, at IS's per-source rates and counts — against the fitted IS
 * model (favorite processor, hyperexponential arrivals, bimodal
 * lengths), which saturates earlier as traffic converges on p0.
 */
void
figLoadsweep(std::ostream &os, const Suite &suite)
{
    const auto &report = find(suite, "is").report;
    auto fitted = core::SyntheticModel::fromReport(report);

    core::SyntheticModel uniform;
    uniform.mesh = fitted.mesh;
    uniform.nprocs = fitted.nprocs;
    int meanLen = static_cast<int>(report.volume.lengthStats.mean + 0.5);
    uniform.lengthPmf = {{meanLen, 1.0}};
    for (const auto &sm : fitted.sources) {
        core::SyntheticModel::SourceModel um;
        um.source = sm.source;
        um.messageCount = sm.messageCount;
        um.interArrival =
            std::make_unique<stats::Exponential>(1.0 / sm.interArrival->mean());
        std::vector<double> dest(static_cast<std::size_t>(uniform.nprocs),
                                 1.0 / static_cast<double>(uniform.nprocs - 1));
        dest[static_cast<std::size_t>(sm.source)] = 0.0;
        um.destination = stats::DiscretePmf{std::move(dest)};
        uniform.sources.push_back(std::move(um));
    }

    os << "F-LS: latency vs offered load — uniform assumption "
          "vs fitted IS model (time_scale < 1 = higher load)\n\n";
    os << std::right << std::setw(11) << "time-scale" << std::setw(13)
       << "unif-lat" << std::setw(13) << "fitted-lat" << std::setw(13)
       << "unif-cont" << std::setw(13) << "fitted-cont" << std::setw(11)
       << "unif-util" << std::setw(12) << "fitted-util"
       << "\n";
    os << std::string(86, '-') << "\n";
    for (double scale : {4.0, 2.0, 1.0, 0.5, 0.25}) {
        auto u = core::SyntheticTrafficGenerator::run(
            uniform, {.seed = 31, .timeScale = scale});
        auto f = core::SyntheticTrafficGenerator::run(
            fitted, {.seed = 31, .timeScale = scale});
        os << std::fixed << std::setprecision(2) << std::setw(11) << scale
           << std::setprecision(4) << std::setw(13) << u.latencyMean
           << std::setw(13) << f.latencyMean << std::setw(13)
           << u.contentionMean << std::setw(13) << f.contentionMean
           << std::setprecision(3) << std::setw(11)
           << u.avgChannelUtilization << std::setw(12)
           << f.avgChannelUtilization << "\n";
    }
    os << "\nExpected shape: comparable at light load; the "
          "fitted (favorite-processor) model shows markedly "
          "higher latency as load grows — the uniform "
          "assumption underestimates hot-spot contention.\n";
}

/**
 * M1 — the methodology's deliverable: the fitted characterization
 * drives an M/G/1-style wormhole model (core::AnalyticMeshModel),
 * compared per application with the simulated network, and along a
 * load sweep with a synthetic simulation of the fitted IS workload.
 */
void
analyticModel(std::ostream &os, const Suite &suite)
{
    os << "M1: analytical wormhole model vs simulation\n\n";
    os << std::left << std::setw(10) << "app" << std::right << std::setw(11)
       << "sim-lat" << std::setw(11) << "model-lat" << std::setw(11)
       << "sim-cont" << std::setw(12) << "model-cont" << std::setw(10)
       << "sim-util" << std::setw(11) << "model-util" << std::setw(9)
       << "stable"
       << "\n";
    os << std::string(85, '-') << "\n";
    for (const auto &run : suite) {
        const auto &report = run.report;
        auto model = core::AnalyticMeshModel::evaluate(report);
        os << std::left << std::setw(10) << report.application << std::right
           << std::fixed << std::setprecision(4) << std::setw(11)
           << report.network.latencyMean << std::setw(11) << model.latencyMean
           << std::setw(11) << report.network.contentionMean << std::setw(12)
           << model.contentionMean << std::setprecision(3) << std::setw(10)
           << report.network.avgChannelUtilization << std::setw(11)
           << model.avgChannelUtilization << std::setw(9)
           << (model.stable ? "yes" : "NO") << "\n";
    }

    os << "\nIS load sweep — model vs synthetic simulation "
          "(paced injection, 4 outstanding):\n";
    os << std::right << std::setw(8) << "load" << std::setw(12)
       << "model-lat" << std::setw(12) << "sim-lat" << std::setw(13)
       << "model-util" << std::setw(11) << "sim-util"
       << "\n";
    os << std::string(56, '-') << "\n";
    const auto &isReport = find(suite, "is").report;
    for (double load : {0.25, 0.5, 1.0, 1.5}) {
        auto model = core::AnalyticMeshModel::evaluate(isReport, load);
        auto synthModel = core::SyntheticModel::fromReport(isReport);
        auto sim = core::SyntheticTrafficGenerator::run(
            synthModel,
            {.seed = 77, .timeScale = 1.0 / load, .maxOutstanding = 4});
        os << std::fixed << std::setprecision(2) << std::setw(8) << load
           << std::setprecision(4) << std::setw(12) << model.latencyMean
           << std::setw(12) << sim.latencyMean << std::setprecision(3)
           << std::setw(13) << model.avgChannelUtilization << std::setw(11)
           << sim.avgChannelUtilization
           << (model.stable ? "" : "  [saturated]") << "\n";
    }
    os << "\nExpected shape: the model tracks the simulated "
          "latency ordering across applications and the "
          "utilization growth with load; absolute errors grow "
          "near saturation (open M/G/1 approximation).\n";
}

/**
 * V1 — the fitted distributions, used as synthetic workload models,
 * must reproduce the network behaviour of the original traffic ("These
 * distributions can be used in the analysis of ICNs for developing
 * realistic performance models"): original vs model-driven latency
 * and contention, open loop and paced.
 */
void
validation(std::ostream &os, const Suite &suite)
{
    os << "V1: synthetic-model validation — original vs "
          "model-driven network behaviour\n\n";
    os << "(open = unbounded open-loop injection; paced = "
          "4 outstanding messages per source)\n\n";
    os << std::left << std::setw(10) << "app" << std::right << std::setw(11)
       << "lat-orig" << std::setw(11) << "lat-open" << std::setw(11)
       << "lat-paced" << std::setw(11) << "cont-orig" << std::setw(11)
       << "cont-paced" << std::setw(11) << "err-open" << std::setw(10)
       << "err-paced"
       << "\n";
    os << std::string(86, '-') << "\n";
    for (const auto &run : suite) {
        const auto &report = run.report;
        auto open = core::validateReportModel(report, {.seed = 1234});
        auto paced = core::validateReportModel(
            report, {.seed = 1234, .maxOutstanding = 4});
        os << std::left << std::setw(10) << report.application << std::right
           << std::fixed << std::setprecision(4) << std::setw(11)
           << report.network.latencyMean << std::setw(11)
           << open.network.latencyMean << std::setw(11)
           << paced.network.latencyMean << std::setw(11)
           << report.network.contentionMean << std::setw(11)
           << paced.network.contentionMean << std::setw(10)
           << std::setprecision(1) << open.latencyError * 100.0 << "%"
           << std::setw(9) << paced.latencyError * 100.0 << "%\n";
    }
}

} // namespace

int
main()
{
    bench::SelfReport selfReport{"paper_suite"};
    const Suite suite = runSuite();
    using Section = void (*)(std::ostream &, const Suite &);
    const Section sections[] = {table1,        table2,     table3,
                                table4,        table5,     figInterarrival,
                                figSpatial,    figPhases,  figLoadsweep,
                                analyticModel, validation};
    const char *separator = "";
    for (Section section : sections) {
        std::ostringstream os;
        section(os, suite);
        std::cout << separator << os.str();
        separator = "\n";
    }
    return 0;
}
