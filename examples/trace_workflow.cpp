/**
 * @file
 * The static-strategy artifacts: collect an application-level trace
 * from a message-passing run (the SP2 trace-utility step), save it to
 * disk in the textual trace format, reload it, and replay it into the
 * 2-D mesh simulator.
 */

#include <iostream>

#include "apps/fft3d.hh"
#include "core/core.hh"

int
main()
{
    using namespace cchar;

    // 1. Execute 3D-FFT on the SP2-model runtime with tracing on.
    apps::Fft3D::Params params;
    params.nx = params.ny = params.nz = 8;
    params.iterations = 2;
    apps::Fft3D app{params};

    desim::Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 2;
    mp::MpWorld world{sim, cfg};
    world.enableTracing();
    apps::launch(world, app);
    world.run();
    std::cout << "application verified: "
              << (app.verify() ? "yes" : "NO") << "\n";

    const trace::Trace &collected = world.collectedTrace();
    std::cout << "collected " << collected.size()
              << " application-level events\n";

    // 2. Persist and reload the trace (the portable artifact), in the
    //    working directory.
    const std::string path = "cchar-3dfft.trace";
    collected.saveFile(path);
    trace::Trace reloaded = trace::Trace::loadFile(path);
    std::cout << "round-tripped trace through " << path << " ("
              << reloaded.size() << " events)\n";

    // 3. Replay into the mesh and report network behaviour.
    auto replayed = core::TraceReplayer::replay(reloaded, cfg.mesh);
    std::cout << "replay: " << replayed.log.size()
              << " messages, latency mean " << replayed.latencyMean
              << "us, contention mean " << replayed.contentionMean
              << "us, makespan " << replayed.makespan << "us\n";

    // 4. Analyze the replayed log.
    core::CharacterizationPipeline pipeline;
    core::NetworkSummary net;
    net.latencyMean = replayed.latencyMean;
    net.latencyMax = replayed.latencyMax;
    net.contentionMean = replayed.contentionMean;
    net.makespan = replayed.makespan;
    net.avgChannelUtilization = replayed.avgChannelUtilization;
    net.maxChannelUtilization = replayed.maxChannelUtilization;
    auto report = pipeline.analyze(replayed.log, cfg.mesh, "3d-fft",
                                   core::Strategy::Static, net);
    std::cout << "\n";
    report.print(std::cout);
    return app.verify() ? 0 : 1;
}
