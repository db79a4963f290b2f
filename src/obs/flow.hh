/**
 * @file
 * Message-lifecycle flow tracking.
 *
 * A FlowTracker assigns every network message a unique *flow id* at
 * generation time (coherence-protocol post, MP send, trace replay) and
 * follows it through mesh injection, per-hop traversal and delivery.
 * Two artifacts come out:
 *
 *  - a bounded reservoir of completed FlowRecords — per-message
 *    lifecycle facts (class, endpoints, length, generate/inject/deliver
 *    sim-times, queueing and stall components) that downstream
 *    consumers (the HTML run report, tests) read without re-running the
 *    simulation;
 *  - the sampling decision for Perfetto *flow events*: the mesh asks
 *    sampled(id) and, for selected messages, emits s/t/f flow records
 *    through the Tracer so the exported trace draws arrows linking the
 *    injection span, every channel-hold span along the path, and the
 *    delivery drain span.
 *
 * Like the other sinks the tracker is installed per thread
 * (obs::ScopedObservability) and resolved once at component
 * construction. Flow ids ride in a dedicated Packet field and feed
 * *only* observability — simulation results are byte-identical with or
 * without a tracker installed.
 *
 * Determinism: ids are a monotonic counter in generation order, the
 * reservoir keeps the first `capacity` completions, and sampling is a
 * pure function of the id (id % stride == 0) — identical runs produce
 * identical flow artifacts.
 */

#ifndef CCHAR_OBS_FLOW_HH
#define CCHAR_OBS_FLOW_HH

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "registry.hh"

namespace cchar::obs {

/** Completed lifecycle of one message. */
struct FlowRecord
{
    std::uint64_t id = 0;
    /** trace::MessageKind value (kept as int: obs stays dependency-free). */
    int kind = 0;
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::int32_t bytes = 0;
    std::int32_t hops = 0;
    /** Producer handed the message to the runtime (us). */
    double tGenerate = 0.0;
    /** Message reached the network interface (us). */
    double tInject = 0.0;
    /** Tail flit drained at the destination (us). */
    double tDeliver = 0.0;
    /** Wait for the source's injection port (us). */
    double queueWait = 0.0;
    /** Cumulative in-network lane-acquire stall (us). */
    double stallWait = 0.0;

    /** Software/runtime latency before the network saw the message. */
    double softwareTime() const { return tInject - tGenerate; }
    /** Network latency (inject to deliver). */
    double networkLatency() const { return tDeliver - tInject; }
    /** Contention-free routing + serialization component. */
    double
    transitTime() const
    {
        return networkLatency() - queueWait - stallWait;
    }
};

/** Assigns flow ids and collects completed lifecycle records. */
class FlowTracker
{
  public:
    /**
     * @param capacity Completed records kept (first-N reservoir).
     * @param stride   Emit tracer flow events for every stride-th
     *                 flow id (1 = every message).
     */
    explicit FlowTracker(std::size_t capacity = 4096,
                         std::uint64_t stride = 1);

    FlowTracker(const FlowTracker &) = delete;
    FlowTracker &operator=(const FlowTracker &) = delete;

    /**
     * Open a flow at generation time and return its id (ids start at
     * 1; 0 marks "no flow" in a Packet).
     */
    std::uint64_t open(int kind, std::int32_t src, std::int32_t dst,
                       std::int32_t bytes, double t);

    /** True when the mesh should emit tracer flow events for `id`. */
    bool
    sampled(std::uint64_t id) const
    {
        return id != 0 && (id - 1) % stride_ == 0;
    }

    /** The message reached the network interface. */
    void onInject(std::uint64_t id, double t);

    /**
     * The tail drained at the destination: completes the record and
     * moves it to the reservoir (or counts it dropped when full).
     */
    void onDeliver(std::uint64_t id, double t, std::int32_t hops,
                   double queue_wait, double stall_wait);

    /** Flows opened so far. */
    std::uint64_t opened() const { return nextId_ - 1; }

    /** Flows delivered so far. */
    std::uint64_t completed() const { return completed_; }

    /** Completions that did not fit in the reservoir. */
    std::uint64_t droppedRecords() const { return droppedRecords_; }

    /** Flow-event sampling stride. */
    std::uint64_t stride() const { return stride_; }

    /** Completed lifecycle records, completion order, <= capacity. */
    const std::vector<FlowRecord> &records() const { return records_; }

    /**
     * JSON: {"opened":..,"completed":..,"dropped":..,"stride":..,
     * "records":[{..},..]} — deterministic field order.
     */
    void writeJson(std::ostream &os) const;

  private:
    std::uint64_t nextId_ = 1;
    std::uint64_t stride_;
    std::uint64_t completed_ = 0;
    std::uint64_t droppedRecords_ = 0;
    std::size_t capacity_;
    /**
     * "flow.dropped" counter, resolved from the ambient registry on
     * the first overflow rather than at construction: drivers build
     * the tracker before installing their sinks, and the drop path is
     * cold by definition.
     */
    Counter droppedMetric_;
    bool droppedMetricResolved_ = false;
    std::vector<FlowRecord> records_;
    /** Generated-but-undelivered flows (bounded by in-flight count). */
    std::unordered_map<std::uint64_t, FlowRecord> open_;
};

} // namespace cchar::obs

#endif // CCHAR_OBS_FLOW_HH
