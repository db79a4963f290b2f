/**
 * @file
 * Ablation A3 — execution-driven feedback vs open-loop replay.
 *
 * The paper insists on execution-driven simulation for shared-memory
 * applications: "as each communication event is generated there is
 * also a feedback from the network simulator to the event generator".
 * This ablation takes the traffic of a dynamic run, converts it to a
 * per-source trace using the execution-driven injection times, and
 * replays it (a) open-loop — re-injecting at the recorded offsets —
 * and (b) blocking on delivery. Open-loop replay reproduces the
 * original network behaviour almost exactly *because* the recorded
 * injection times already embody the feedback; blocking replay adds
 * artificial per-source serialization and underestimates contention.
 * The flip side is the paper's argument: without execution-driven
 * feedback those injection times could not have been produced in the
 * first place.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "common.hh"

namespace {

using namespace cchar;

/** Convert a network log into a per-source sinceLast trace. */
trace::Trace
logToTrace(const trace::TrafficLog &log)
{
    trace::Trace t{log.nprocs()};
    std::vector<double> lastInject(
        static_cast<std::size_t>(log.nprocs()), 0.0);
    // Records are in injection order per source already (the log is
    // appended at delivery; sort by injection first).
    std::vector<trace::MessageRecord> recs = log.records();
    std::sort(recs.begin(), recs.end(),
              [](const auto &a, const auto &b) {
                  return a.injectTime < b.injectTime;
              });
    for (const auto &r : recs) {
        trace::TraceEvent ev;
        ev.src = r.src;
        ev.dst = r.dst;
        ev.bytes = r.bytes;
        ev.kind = r.kind;
        ev.sinceLast =
            r.injectTime - lastInject[static_cast<std::size_t>(r.src)];
        lastInject[static_cast<std::size_t>(r.src)] = r.injectTime;
        t.add(ev);
    }
    return t;
}

} // namespace

int
main()
{
    cchar::bench::SelfReport selfReport{"ablation_feedback"};
    using namespace cchar::bench;

    std::cout << "A3: execution-driven feedback vs trace replay of "
                 "the same traffic\n\n";
    std::cout << std::left << std::setw(10) << "app" << std::right
              << std::setw(12) << "exec-lat" << std::setw(12)
              << "block-lat" << std::setw(12) << "open-lat"
              << std::setw(12) << "exec-cont" << std::setw(12)
              << "block-cont" << std::setw(12) << "open-cont"
              << "\n";
    std::cout << std::string(82, '-') << "\n";

    for (const std::string &name :
         {std::string{"1d-fft"}, std::string{"is"},
          std::string{"nbody"}}) {
        // Execution-driven run (with feedback).
        desim::Simulator sim;
        ccnuma::Machine machine{sim, standardMachine()};
        auto app = apps::makeSharedMemoryApp(name);
        apps::launch(machine, *app);
        machine.run();
        double execLat = machine.network().latencyStats().mean();
        double execCont = machine.network().contentionStats().mean();

        // Replays of the identical traffic.
        trace::Trace t = logToTrace(machine.log());
        auto blocking = core::TraceReplayer::replay(
            t, standardMachine().mesh, {.pacing = core::Pacing::Blocking});
        auto open = core::TraceReplayer::replay(
            t, standardMachine().mesh, {.pacing = core::Pacing::Open});

        std::cout << std::left << std::setw(10) << name << std::right
                  << std::fixed << std::setprecision(4) << std::setw(12)
                  << execLat << std::setw(12) << blocking.latencyMean
                  << std::setw(12) << open.latencyMean << std::setw(12)
                  << execCont << std::setw(12)
                  << blocking.contentionMean << std::setw(12)
                  << open.contentionMean << "\n";
    }
    std::cout << "\nExpected shape: open-loop replay of the "
                 "feedback-derived injection times tracks the "
                 "execution-driven run; blocking replay serializes "
                 "each source and underestimates contention.\n";
    return 0;
}
