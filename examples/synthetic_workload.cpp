/**
 * @file
 * The methodology's payoff: turn a characterization into a synthetic
 * workload model and use it in place of the application.
 *
 * Characterizes IS (Integer Sort), extracts the fitted per-source
 * inter-arrival and destination distributions, drives the same 2-D
 * mesh with synthetic traffic drawn from those distributions, and
 * compares the resulting network behaviour with the original
 * application-driven run.
 */

#include <cmath>
#include <iomanip>
#include <iostream>

#include "apps/is.hh"
#include "core/core.hh"

int
main()
{
    using namespace cchar;

    apps::IntegerSort::Params params;
    params.n = 1024;
    params.buckets = 32;
    apps::IntegerSort app{params};

    ccnuma::MachineConfig machine;
    machine.mesh.width = 4;
    machine.mesh.height = 4;

    std::cout << "1. Characterizing IS on a 4x4 CC-NUMA machine...\n";
    core::CharacterizationPipeline pipeline;
    auto report = pipeline.runDynamic(app, machine);
    std::cout << "   " << report.volume.messageCount
              << " messages, temporal fit "
              << report.temporalAggregate.fit.dist->describe()
              << ", spatial " << report.spatialAggregate.describe()
              << "\n";

    std::cout << "2. Building the synthetic model from the fitted "
              << "distributions...\n";
    auto model = core::SyntheticModel::fromReport(report);
    std::cout << "   " << model.sources.size()
              << " source models, length PMF of "
              << model.lengthPmf.size() << " sizes\n";

    std::cout << "3. Driving the mesh with synthetic traffic...\n";
    auto synthetic =
        core::SyntheticTrafficGenerator::run(model, {.seed = 2024});

    std::cout << "4. Original vs synthetic network behaviour:\n";
    auto row = [](const char *name, double orig, double synth) {
        double err = orig != 0.0 ? (synth - orig) / orig * 100.0 : 0.0;
        std::cout << "   " << std::left << std::setw(22) << name
                  << std::right << std::fixed << std::setprecision(4)
                  << std::setw(12) << orig << std::setw(12) << synth
                  << std::setw(9) << std::setprecision(1) << err
                  << "%\n";
    };
    std::cout << "   metric                     original   synthetic"
              << "    error\n";
    row("latency mean (us)", report.network.latencyMean,
        synthetic.latencyMean);
    row("contention mean (us)", report.network.contentionMean,
        synthetic.contentionMean);
    row("avg channel util", report.network.avgChannelUtilization,
        synthetic.avgChannelUtilization);

    double err = std::fabs(synthetic.latencyMean -
                           report.network.latencyMean) /
                 report.network.latencyMean;
    std::cout << "\nSynthetic model "
              << (err < 1.0 ? "reproduces" : "FAILS to reproduce")
              << " the original latency within a factor of two.\n";
    return err < 1.0 ? 0 : 1;
}
