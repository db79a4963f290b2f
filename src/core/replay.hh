/**
 * @file
 * Trace replay into the 2-D mesh — the paper's static strategy.
 *
 * "These traces are then fed intelligently to our network simulator to
 * avoid the traditional pitfalls of trace-driven simulation. Since the
 * order of execution of events on our network simulator would be the
 * same as the order of execution on any machine, the event generator
 * does not have to be informed or stalled."
 *
 * One replay process per source preserves each source's event order
 * and re-applies the recorded compute gap ("time since the last
 * network activity at the source") between its messages, while the
 * network itself determines delivery times and contention.
 */

#ifndef CCHAR_CORE_REPLAY_HH
#define CCHAR_CORE_REPLAY_HH

#include "desim/desim.hh"
#include "fault/injector.hh"
#include "mesh/mesh.hh"
#include "obs/obs.hh"
#include "report.hh"
#include "trace/record.hh"
#include "trace/trace.hh"

namespace cchar::core {

/** Outcome of driving the mesh with a message stream. */
struct DriveResult
{
    trace::TrafficLog log;
    double makespan = 0.0;
    double latencyMean = 0.0;
    double latencyMax = 0.0;
    double contentionMean = 0.0;
    double avgChannelUtilization = 0.0;
    double maxChannelUtilization = 0.0;

    // Resilience accounting (all zero in fault-free runs).
    /** Source-level retries after a drop or corruption. */
    std::uint64_t retransmits = 0;
    /** Replayed messages abandoned after the retry budget. */
    std::uint64_t deliveryFailures = 0;
    /** Packets lost to a Bernoulli drop clause. */
    std::uint64_t droppedPackets = 0;
    /** Packets delivered corrupted (then discarded and retried). */
    std::uint64_t corruptedPackets = 0;
    /** Packets tail-dropped on a down link. */
    std::uint64_t linkDrops = 0;

    /**
     * Take the network statistics of a finished run whose traffic
     * `net` carried into `log`; `now` is the simulator clock at the
     * end of the run.
     */
    void measure(const mesh::MeshNetwork &net, desim::SimTime now);

    /** The network section of a report (analyze adds avgHops). */
    NetworkSummary summary() const;
};

/** Knobs of TraceReplayer::replay. */
struct ReplayOptions
{
    /**
     * If true (default), a source waits for each of its messages to
     * drain before its next compute gap — preserving per-source
     * dependences. If false, messages are injected open-loop (the
     * ablation mode; faulted outcomes cannot be retried open-loop).
     */
    bool blocking = true;
    /** Optional windowed telemetry sampler (see replay()). */
    obs::WindowedSampler *sampler = nullptr;
    double samplePeriodUs = 0.0;
    /**
     * Fault oracle wired into the replay mesh (non-owning; may be
     * null). When set and blocking, a source retries a message whose
     * transfer reports a drop or corruption, with the plan's retry
     * backoff, until delivered intact or the attempt budget is spent.
     */
    fault::FaultInjector *faults = nullptr;
    /**
     * Arm a no-progress watchdog on the replay simulation (probe:
     * delivered-message count). WatchdogError propagates out of
     * replay(). Pair with an unbounded retry budget.
     */
    bool enableWatchdog = false;
    desim::WatchdogConfig watchdog{};
};

/** Replays application traces into a mesh network. */
class TraceReplayer
{
  public:
    /**
     * Replay a trace on a fresh mesh of the given configuration.
     *
     * When a metrics sink is installed (obs::ScopedObservability), the
     * replay records its lag behind the pure trace clock — the
     * cumulative network-drain time separating the replayed injection
     * times from the recorded compute gaps — in the "replay.lag_us"
     * histogram.
     */
    static DriveResult replay(const trace::Trace &trace,
                              const mesh::MeshConfig &mesh,
                              const ReplayOptions &opts = {});
};

} // namespace cchar::core

#endif // CCHAR_CORE_REPLAY_HH
