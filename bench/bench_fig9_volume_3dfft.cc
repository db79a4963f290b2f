/**
 * @file
 * Experiment F9 — the paper's Figure 9 phenomenon for 3D-FFT on 8
 * processors: "the application uses processor p0 as the root of all
 * the broadcast calls resulting in processor p0 being the favorite.
 * However, the volume distribution is uniform for all the
 * processors."
 *
 * Prints, for each source, the message-COUNT distribution and the
 * byte-VOLUME distribution over destinations side by side. The shape
 * to observe: count peaks at destination 0, volume is flat.
 */

#include <iomanip>
#include <iostream>

#include "apps/fft3d.hh"
#include "common.hh"

int
main()
{
    cchar::bench::SelfReport selfReport{"fig9_volume_3dfft"};
    using namespace cchar;
    using namespace cchar::bench;

    // Run 3D-FFT with extra iterations to emphasize the broadcasts.
    apps::Fft3D::Params params;
    params.nx = params.ny = params.nz = 16;
    params.iterations = 4;
    apps::Fft3D app{params};
    core::CharacterizationPipeline pipeline;
    mp::MpConfig world = standardWorld();
    auto report = pipeline.runStatic(app, world);

    std::cout << "F9: 3D-FFT (8 procs) — message count vs byte volume "
                 "distribution per source\n";
    std::cout << "verified: " << (report.verified ? "yes" : "NO")
              << ", " << report.volume.messageCount << " messages\n\n";

    // Recover the per-destination byte volumes from a fresh traced
    // run (the report keeps counts; volumes need the raw log).
    apps::Fft3D app2{params};
    desim::Simulator sim;
    mp::MpWorld w{sim, world};
    apps::launch(w, app2);
    w.run();
    const auto &log = w.log();

    for (int src = 0; src < 8; ++src) {
        auto counts = log.destinationCounts(src);
        auto bytes = log.destinationBytes(src);
        double totalCount = 0.0, totalBytes = 0.0;
        for (int d = 0; d < 8; ++d) {
            totalCount += counts[static_cast<std::size_t>(d)];
            totalBytes += bytes[static_cast<std::size_t>(d)];
        }
        if (totalCount == 0.0)
            continue;
        std::cout << "p" << src << ":  dest     count%   volume%\n";
        for (int d = 0; d < 8; ++d) {
            std::cout << "      " << std::setw(4) << d << std::setw(10)
                      << std::fixed << std::setprecision(1)
                      << counts[static_cast<std::size_t>(d)] /
                             totalCount * 100.0
                      << std::setw(10)
                      << bytes[static_cast<std::size_t>(d)] /
                             totalBytes * 100.0
                      << "\n";
        }
        std::cout << "\n";
    }

    std::cout << "Expected shape: count%% favors destination 0 "
                 "(broadcast acks), volume%% near-uniform "
                 "(all-to-all transpose dominates bytes).\n";
    return 0;
}
