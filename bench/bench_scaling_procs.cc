/**
 * @file
 * Experiment S1 — communication attributes vs system size.
 *
 * Runs 1D-FFT, IS and Nbody on 2x2, 4x2 and 4x4 meshes (same problem
 * size) and reports how the three attributes evolve: message count,
 * inter-arrival mean/CV, best-fit family, spatial pattern and mean
 * hop distance. The paper's methodology is meant to feed scalability
 * studies; this table shows the characterization moving with P.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"

int
main()
{
    using namespace cchar;
    cchar::bench::SelfReport selfReport{"scaling_procs"};
    std::cout << "S1: characterization vs system size (same problem "
                 "size per app)\n\n";
    std::cout << std::left << std::setw(10) << "app" << std::right
              << std::setw(6) << "procs" << std::setw(9) << "msgs"
              << std::setw(10) << "IAT(us)" << std::setw(7) << "CV"
              << "  " << std::left << std::setw(20) << "fit"
              << std::setw(18) << "spatial" << std::right
              << std::setw(9) << "avgHops"
              << "\n";
    std::cout << std::string(89, '-') << "\n";

    struct Shape
    {
        int width, height;
    };
    for (const std::string &name :
         {std::string{"1d-fft"}, std::string{"is"},
          std::string{"nbody"}}) {
        for (Shape shape : {Shape{2, 2}, Shape{4, 2}, Shape{4, 4}}) {
            ccnuma::MachineConfig cfg;
            cfg.mesh.width = shape.width;
            cfg.mesh.height = shape.height;
            auto app = apps::makeSharedMemoryApp(name);
            core::CharacterizationPipeline pipeline;
            auto report = pipeline.runDynamic(*app, cfg);
            std::cout << std::left << std::setw(10) << name
                      << std::right << std::setw(6) << report.nprocs
                      << std::setw(9) << report.volume.messageCount
                      << std::setw(10) << std::fixed
                      << std::setprecision(4)
                      << report.temporalAggregate.stats.mean
                      << std::setw(7) << std::setprecision(2)
                      << report.temporalAggregate.stats.cv << "  "
                      << std::left << std::setw(20)
                      << report.temporalAggregate.fit.dist->name()
                      << std::setw(18)
                      << stats::toString(report.spatialAggregate.pattern)
                      << std::right << std::setw(9)
                      << std::setprecision(2) << report.network.avgHops
                      << (report.verified ? "" : "  [VERIFY FAILED]")
                      << "\n";
        }
        std::cout << "\n";
    }
    return 0;
}
