#include "replay.hh"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/status.hh"
#include "desim/desim.hh"
#include "telemetry.hh"

namespace cchar::core {

namespace {

/** A windowed transfer: releases its slot when drained. */
desim::Task<void>
pacedTransfer(mesh::MeshNetwork *net,
              std::shared_ptr<desim::Resource> slots, mesh::Packet pkt)
{
    (void)co_await net->transfer(std::move(pkt));
    slots->release();
}

desim::Task<void>
sendProcess(mesh::MeshNetwork *net, TrafficSource *src, Pacing pacing,
            int window, const fault::RetryConfig *retry, DriveResult *result)
{
    desim::Simulator &sim = net->sim();
    std::shared_ptr<desim::Resource> slots;
    if (pacing == Pacing::Window)
        slots = std::make_shared<desim::Resource>(sim, window);
    SourceMessage msg;
    while (src->next(sim.now(), msg)) {
        co_await sim.delay(msg.gap);
        mesh::Packet &pkt = msg.packet;
        if (pacing == Pacing::Open) {
            net->post(std::move(pkt));
            continue;
        }
        if (pacing == Pacing::Window) {
            co_await slots->acquire();
            sim.spawn(pacedTransfer(net, slots, std::move(pkt)),
                      "synth-paced");
            continue;
        }
        if (!retry) {
            (void)co_await net->transfer(std::move(pkt));
            continue;
        }
        // Source-driven reliability: a blocking transfer reports its
        // own outcome, so a transport-level nack suffices — no acks.
        double backoff = retry->ackTimeoutUs;
        for (int attempt = 1;; ++attempt) {
            trace::MessageRecord rec = co_await net->transfer(pkt);
            if (rec.delivered && !rec.corrupted)
                break;
            if (!retry->unbounded() && attempt >= retry->maxAttempts) {
                ++result->deliveryFailures;
                std::ostringstream os;
                os << "replay: delivery failure " << pkt.src << "->"
                   << pkt.dst << " bytes=" << pkt.bytes << " after "
                   << attempt << " attempts";
                reportDiagnostic(DiagSeverity::Error, os.str());
                break;
            }
            ++result->retransmits;
            co_await sim.delay(backoff);
            backoff *= retry->backoffFactor;
        }
    }
}

/** Drain every packet delivered to a node (the mesh has no consumers). */
desim::Task<void>
sinkProcess(mesh::MeshNetwork *net, int node)
{
    for (;;)
        (void)co_await net->rxQueue(node).receive();
}

} // namespace

void
DriveResult::measure(const mesh::MeshNetwork &net, desim::SimTime now)
{
    makespan = log.lastDeliverTime();
    latencyMean = net.latencyStats().mean();
    latencyMax = net.latencyStats().max();
    contentionMean = net.contentionStats().mean();
    avgChannelUtilization = net.averageChannelUtilization(now);
    maxChannelUtilization = net.maxChannelUtilization(now);
}

NetworkSummary
DriveResult::summary() const
{
    NetworkSummary net;
    net.latencyMean = latencyMean;
    net.latencyMax = latencyMax;
    net.contentionMean = contentionMean;
    net.makespan = makespan;
    net.avgChannelUtilization = avgChannelUtilization;
    net.maxChannelUtilization = maxChannelUtilization;
    return net;
}

void
armRunWatchdog(desim::Watchdog &watchdog, const desim::Simulator &sim,
               const desim::WatchdogConfig &cfg, bool faulted,
               std::function<std::uint64_t()> progress)
{
    if (faulted)
        watchdog.setProgressProbe(std::move(progress));
    else if (cfg.cancelFlag)
        watchdog.setProgressProbe([&sim] { return sim.processedEvents(); });
    if (faulted || cfg.cancelFlag)
        watchdog.arm();
}

DriveResult
driveMesh(const mesh::MeshConfig &mesh, std::vector<TrafficSource> sources,
          const DriveOptions &opts)
{
    const fault::RetryConfig *retry = nullptr;
    if (opts.faults && opts.pacing == Pacing::Blocking)
        retry = &opts.faults->plan().retry();

    DriveResult result;
    desim::Simulator sim;
    mesh::MeshNetwork net{sim, mesh, &result.log, opts.faults};
    desim::Watchdog watchdog{sim, opts.watchdog};
    // Progress = delivered messages plus resolved delivery failures: a
    // bounded retry budget burning down on a hostile plan is progress
    // toward the accounted delivery-failure exit, not livelock. Retries
    // that never resolve (a permanently down link under an unbounded
    // budget) advance neither term and still trip the watchdog.
    armRunWatchdog(watchdog, sim, opts.watchdog, opts.faults != nullptr,
                   [&net, &result] {
                       return net.messageCount() + result.deliveryFailures;
                   });
    if (opts.sampler && opts.samplePeriodUs > 0.0)
        attachNetworkTelemetry(sim, net, *opts.sampler, opts.samplePeriodUs);
    for (int node = 0; node < mesh.nodes(); ++node)
        sim.spawn(sinkProcess(&net, node), "sink");
    for (TrafficSource &src : sources) {
        sim.spawn(sendProcess(&net, &src, opts.pacing, opts.window, retry,
                              &result),
                  src.process);
    }
    sim.run();

    result.measure(net, sim.now());
    if (opts.faults) {
        result.droppedPackets = opts.faults->drops();
        result.corruptedPackets = opts.faults->corrupts();
        result.linkDrops = opts.faults->linkDrops();
    }
    return result;
}

DriveResult
TraceReplayer::replay(const trace::Trace &trace,
                      const mesh::MeshConfig &mesh,
                      const ReplayOptions &opts)
{
    if (trace.nprocs() > mesh.width * mesh.height)
        throw std::invalid_argument("replay: trace does not fit on "
                                    "the mesh");
    obs::Counter messages;
    obs::Histogram lag;
    if (obs::MetricsRegistry *reg = obs::metrics()) {
        messages = reg->counter("replay.messages");
        lag = reg->histogram("replay.lag_us");
    }
    std::vector<TrafficSource> sources;
    for (int src = 0; src < trace.nprocs(); ++src) {
        std::vector<trace::TraceEvent> evs = trace.eventsOfSource(src);
        if (evs.empty())
            continue;
        // The pure trace clock: where this source would be if only its
        // recorded compute gaps were charged. Each message injects at
        // now + gap, which trails it by the network drain time so far.
        auto cursor = [evs = std::move(evs), i = std::size_t{0},
                       clock = 0.0, messages,
                       lag](desim::SimTime now, SourceMessage &msg) mutable {
            if (i == evs.size())
                return false;
            const trace::TraceEvent &ev = evs[i++];
            clock += ev.sinceLast;
            messages.add(1);
            lag.record(now + ev.sinceLast - clock);
            msg = {ev.sinceLast, {ev.src, ev.dst, ev.bytes, ev.kind}};
            return true;
        };
        sources.push_back({"replay-src-" + std::to_string(src),
                           std::move(cursor)});
    }
    return driveMesh(mesh, std::move(sources), opts);
}

} // namespace cchar::core
