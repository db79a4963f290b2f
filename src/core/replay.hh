/**
 * @file
 * Driving the 2-D mesh from message sources: the paper's static
 * strategy, and its end goal of driving the same network from the
 * fitted distributions.
 *
 * "These traces are then fed intelligently to our network simulator to
 * avoid the traditional pitfalls of trace-driven simulation. Since the
 * order of execution of events on our network simulator would be the
 * same as the order of execution on any machine, the event generator
 * does not have to be informed or stalled."
 *
 * driveMesh is the one loop: one send process per source keeps that
 * source's message order and charges each message's gap before
 * injecting it, while the network determines delivery times and
 * contention. A source is a trace cursor (TraceReplayer::replay) or a
 * model sampler (SyntheticTrafficGenerator::run).
 */

#ifndef CCHAR_CORE_REPLAY_HH
#define CCHAR_CORE_REPLAY_HH

#include <functional>
#include <string>
#include <vector>

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

/** One message a source yields: the gap before it, then the packet. */
struct SourceMessage
{
    double gap = 0.0;
    mesh::Packet packet;
};

/** The lazy message stream of one source node. */
struct TrafficSource
{
    /** Name of its send process (a proc lane of a Chrome trace). */
    std::string process;
    /** Write the next message at sim time `now`; false when exhausted. */
    std::function<bool(desim::SimTime now, SourceMessage &msg)> next;
};

/** How a source's messages enter the network. */
enum class Pacing
{
    /** Post each message and go on (open loop). */
    Open,
    /** Wait for each message to drain before the next gap. */
    Blocking,
    /** Keep at most DriveOptions::window messages in flight. */
    Window,
};

/** Knobs of driveMesh. */
struct DriveOptions
{
    Pacing pacing = Pacing::Blocking;
    int window = 1;
    /** Windowed telemetry sampler (see attachNetworkTelemetry). */
    obs::WindowedSampler *sampler = nullptr;
    double samplePeriodUs = 0.0;
    /**
     * Fault oracle of the mesh (non-owning; may be null). Under
     * Pacing::Blocking a source retries a dropped or corrupted message
     * with the plan's backoff until it lands or its budget is spent.
     */
    fault::FaultInjector *faults = nullptr;
    /** Armed by the rule of armRunWatchdog; WatchdogError propagates. */
    desim::WatchdogConfig watchdog{};
};

/** TraceReplayer::replay takes driveMesh's knobs. */
using ReplayOptions = DriveOptions;

/** Drive a fresh mesh: a sink per node, then a sender per source. */
DriveResult driveMesh(const mesh::MeshConfig &mesh,
                      std::vector<TrafficSource> sources,
                      const DriveOptions &opts);

/**
 * The one watchdog rule of every run: arm iff the run is `faulted` or
 * `cfg` has a cancel flag. A faulted run probes `progress`, any other
 * the committed-event count, which every tick advances, so only the
 * cancel flag or the sim-time horizon can trip it.
 */
void armRunWatchdog(desim::Watchdog &watchdog, const desim::Simulator &sim,
                    const desim::WatchdogConfig &cfg, bool faulted,
                    std::function<std::uint64_t()> progress);

/** Replays application traces into a mesh network. */
class TraceReplayer
{
  public:
    /**
     * Replay a trace on a fresh mesh of the given configuration, one
     * source per non-empty trace source.
     *
     * When a metrics sink is installed (obs::ScopedObservability), the
     * replay counts its messages in "replay.messages" and records its
     * lag behind the pure trace clock (the cumulative network drain
     * time) in the "replay.lag_us" histogram.
     */
    static DriveResult replay(const trace::Trace &trace,
                              const mesh::MeshConfig &mesh,
                              const ReplayOptions &opts = {});
};

} // namespace cchar::core

#endif // CCHAR_CORE_REPLAY_HH
