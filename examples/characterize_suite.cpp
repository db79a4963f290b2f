/**
 * @file
 * Characterize the paper's full application suite — five shared-memory
 * applications via the dynamic strategy (4x4-mesh CC-NUMA) and two
 * NAS message-passing applications via the static strategy (8-rank
 * SP2-model run, trace replayed into a 4x2 mesh) — and print one
 * summary table, the reproduction of the paper's per-application
 * characterization results.
 */

#include <iostream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/core.hh"

int
main()
{
    using namespace cchar;

    ccnuma::MachineConfig machine;
    machine.mesh.width = 4;
    machine.mesh.height = 4;
    mp::MpConfig world;
    world.mesh.width = 4;
    world.mesh.height = 2;

    core::CharacterizationPipeline pipeline;
    std::vector<core::CharacterizationReport> reports;

    std::cout << "Running the shared-memory suite (dynamic strategy, "
              << "16 processors)...\n";
    for (const char *name : {"1d-fft", "is", "cholesky", "maxflow", "nbody"}) {
        auto app = apps::makeSharedMemoryApp(name);
        reports.push_back(pipeline.runDynamic(*app, machine));
    }

    std::cout << "Running the message-passing suite (static strategy, "
              << "8 ranks)...\n";
    for (const std::string &name : apps::messagePassingAppNames()) {
        auto app = apps::makeMessagePassingApp(name);
        reports.push_back(pipeline.runStatic(*app, world));
    }

    std::cout << "\napp          messages  meanLen(B)  meanIAT(us)"
              << "     CV  temporal fit            spatial pattern\n";
    std::cout << std::string(100, '-') << "\n";
    bool allVerified = true;
    for (const auto &report : reports) {
        std::cout << report.summaryRow()
                  << (report.verified ? "" : "  [VERIFY FAILED]")
                  << "\n";
        allVerified = allVerified && report.verified;
    }
    return allVerified ? 0 : 1;
}
