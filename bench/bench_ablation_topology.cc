/**
 * @file
 * Ablation A4 — mesh vs torus under the full application stack.
 *
 * The paper's surrounding literature evaluates both 2-D meshes and
 * tori (e.g. the virtual-channel study it cites). Because the
 * characterization pipeline is topology-agnostic, the same
 * applications run unchanged on a 4x4 mesh and a 4x4 torus (2 VCs,
 * dateline deadlock avoidance): the torus shortens paths and the
 * spatial attribute's hop profile shifts accordingly.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"

int
main()
{
    using namespace cchar;
    cchar::bench::SelfReport selfReport{"ablation_topology"};
    std::cout << "A4: topology ablation — 4x4 mesh vs 4x4 torus "
                 "(2 VCs, dateline)\n\n";
    std::cout << std::left << std::setw(10) << "app" << std::setw(8)
              << "topo" << std::right << std::setw(9) << "msgs"
              << std::setw(10) << "avgHops" << std::setw(12)
              << "latency" << std::setw(12) << "contention"
              << std::setw(12) << "makespan"
              << "\n";
    std::cout << std::string(73, '-') << "\n";

    for (const std::string &name :
         {std::string{"1d-fft"}, std::string{"is"},
          std::string{"nbody"}}) {
        for (bool torus : {false, true}) {
            ccnuma::MachineConfig cfg = bench::standardMachine();
            if (torus) {
                cfg.mesh.topology = mesh::Topology::Torus;
                cfg.mesh.virtualChannels = 2;
            }
            auto app = apps::makeSharedMemoryApp(name);
            core::CharacterizationPipeline pipeline;
            auto report = pipeline.runDynamic(*app, cfg);
            std::cout << std::left << std::setw(10) << name
                      << std::setw(8) << (torus ? "torus" : "mesh")
                      << std::right << std::setw(9)
                      << report.volume.messageCount << std::setw(10)
                      << std::fixed << std::setprecision(2)
                      << report.network.avgHops << std::setw(12)
                      << std::setprecision(4)
                      << report.network.latencyMean << std::setw(12)
                      << report.network.contentionMean << std::setw(12)
                      << std::setprecision(1) << report.network.makespan
                      << (report.verified ? "" : "  [VERIFY FAILED]")
                      << "\n";
        }
        std::cout << "\n";
    }
    std::cout << "Expected shape: the torus cuts the average hop "
                 "count and latency; identical message counts "
                 "(the protocol is topology independent).\n";
    return 0;
}
