/**
 * @file
 * Experiment V1 — methodology validation: the fitted distributions
 * must reproduce the network behaviour of the original traffic when
 * used as synthetic workload models ("These distributions can be used
 * in the analysis of ICNs for developing realistic performance
 * models").
 *
 * For each application: original (application-driven) vs synthetic
 * (model-driven) network latency, contention and utilization.
 */

#include <cmath>
#include <iomanip>
#include <iostream>

#include "common.hh"

namespace {

void
validateRow(const cchar::core::CharacterizationReport &report)
{
    using cchar::core::validateReportModel;
    auto open = validateReportModel(report, {.seed = 1234});
    auto paced = validateReportModel(report,
                                     {.seed = 1234, .maxOutstanding = 4});
    std::cout << std::left << std::setw(10) << report.application
              << std::right << std::fixed << std::setprecision(4)
              << std::setw(11) << report.network.latencyMean
              << std::setw(11) << open.network.latencyMean
              << std::setw(11) << paced.network.latencyMean
              << std::setw(11) << report.network.contentionMean
              << std::setw(11) << paced.network.contentionMean
              << std::setw(10) << std::setprecision(1)
              << open.latencyError * 100.0 << "%" << std::setw(9)
              << paced.latencyError * 100.0 << "%\n";
}

} // namespace

int
main()
{
    cchar::bench::SelfReport selfReport{"validation"};
    using namespace cchar::bench;

    std::cout << "V1: synthetic-model validation — original vs "
                 "model-driven network behaviour\n\n";
    std::cout << "(open = unbounded open-loop injection; paced = "
                 "4 outstanding messages per source)\n\n";
    std::cout << std::left << std::setw(10) << "app" << std::right
              << std::setw(11) << "lat-orig" << std::setw(11)
              << "lat-open" << std::setw(11) << "lat-paced"
              << std::setw(11) << "cont-orig" << std::setw(11)
              << "cont-paced" << std::setw(11) << "err-open"
              << std::setw(10) << "err-paced"
              << "\n";
    std::cout << std::string(86, '-') << "\n";

    for (const auto &name : sharedMemoryAppNames())
        validateRow(sharedMemoryReport(name));
    for (const auto &name : messagePassingAppNames())
        validateRow(messagePassingReport(name));
    return 0;
}
