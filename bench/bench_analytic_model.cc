/**
 * @file
 * Experiment M1 — analytical model vs event-driven simulation.
 *
 * The methodology's deliverable: the fitted characterization drives an
 * M/G/1-style wormhole mesh model (core::AnalyticMeshModel). For every
 * application, the model's latency/contention/utilization predictions
 * are compared with the simulator's measurements, and a load sweep
 * shows the model tracking the simulated saturation behaviour of the
 * synthetic workload.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"

int
main()
{
    cchar::bench::SelfReport selfReport{"analytic_model"};
    using namespace cchar;
    using namespace cchar::bench;

    std::cout << "M1: analytical wormhole model vs simulation\n\n";
    std::cout << std::left << std::setw(10) << "app" << std::right
              << std::setw(11) << "sim-lat" << std::setw(11)
              << "model-lat" << std::setw(11) << "sim-cont"
              << std::setw(12) << "model-cont" << std::setw(10)
              << "sim-util" << std::setw(11) << "model-util"
              << std::setw(9) << "stable"
              << "\n";
    std::cout << std::string(85, '-') << "\n";

    std::vector<core::CharacterizationReport> reports;
    for (const auto &name : sharedMemoryAppNames())
        reports.push_back(sharedMemoryReport(name));
    for (const auto &name : messagePassingAppNames())
        reports.push_back(messagePassingReport(name));

    for (const auto &report : reports) {
        auto model = core::AnalyticMeshModel::evaluate(report);
        std::cout << std::left << std::setw(10) << report.application
                  << std::right << std::fixed << std::setprecision(4)
                  << std::setw(11) << report.network.latencyMean
                  << std::setw(11) << model.latencyMean << std::setw(11)
                  << report.network.contentionMean << std::setw(12)
                  << model.contentionMean << std::setprecision(3)
                  << std::setw(10)
                  << report.network.avgChannelUtilization
                  << std::setw(11) << model.avgChannelUtilization
                  << std::setw(9) << (model.stable ? "yes" : "NO")
                  << "\n";
    }

    // Load sweep on the IS model: analytical curve vs synthetic
    // simulation of the same fitted workload.
    std::cout << "\nIS load sweep — model vs synthetic simulation "
                 "(paced injection, 4 outstanding):\n";
    std::cout << std::right << std::setw(8) << "load" << std::setw(12)
              << "model-lat" << std::setw(12) << "sim-lat"
              << std::setw(13) << "model-util" << std::setw(11)
              << "sim-util"
              << "\n";
    std::cout << std::string(56, '-') << "\n";
    auto &isReport = reports[1]; // "is"
    for (double load : {0.25, 0.5, 1.0, 1.5}) {
        auto model = core::AnalyticMeshModel::evaluate(isReport, load);
        auto synthModel = core::SyntheticModel::fromReport(isReport);
        auto sim = core::SyntheticTrafficGenerator::run(
            synthModel,
            {.seed = 77, .timeScale = 1.0 / load, .maxOutstanding = 4});
        std::cout << std::fixed << std::setprecision(2) << std::setw(8)
                  << load << std::setprecision(4) << std::setw(12)
                  << model.latencyMean << std::setw(12)
                  << sim.latencyMean << std::setprecision(3)
                  << std::setw(13) << model.avgChannelUtilization
                  << std::setw(11) << sim.avgChannelUtilization
                  << (model.stable ? "" : "  [saturated]") << "\n";
    }
    std::cout << "\nExpected shape: the model tracks the simulated "
                 "latency ordering across applications and the "
                 "utilization growth with load; absolute errors grow "
                 "near saturation (open M/G/1 approximation).\n";
    return 0;
}
