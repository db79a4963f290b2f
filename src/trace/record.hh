/**
 * @file
 * Network activity records: the schema of the log the paper's 2-D mesh
 * simulator emits and the SAS analysis consumes ("from this log, we
 * obtain the source-destination information of the messages along with
 * the message length and time of injection").
 */

#ifndef CCHAR_TRACE_RECORD_HH
#define CCHAR_TRACE_RECORD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cchar::trace {

/** Broad message categories for per-class analysis. */
enum class MessageKind : std::uint8_t
{
    Data,      ///< cache-line / application payload carrier
    Control,   ///< protocol request/ack without payload
    Sync,      ///< lock / barrier traffic
};

/** Name of a MessageKind value. */
std::string toString(MessageKind kind);

/** One message's journey through the interconnection network. */
struct MessageRecord
{
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::int32_t bytes = 0;
    MessageKind kind = MessageKind::Data;
    /** Time the message was offered to the network interface (us). */
    double injectTime = 0.0;
    /** Time the tail flit drained at the destination (us). */
    double deliverTime = 0.0;
    /** Path length in hops. */
    std::int32_t hops = 0;
    /** Queueing/blocking component of the latency (us). */
    double contention = 0.0;
    /**
     * False when fault injection dropped the message in-network
     * (always true in fault-free runs). Dropped messages are not
     * appended to the TrafficLog.
     */
    bool delivered = true;
    /** True when fault injection corrupted the delivered payload. */
    bool corrupted = false;

    double latency() const { return deliverTime - injectTime; }
};

/**
 * Accumulated network log of one application run; the raw material of
 * the characterization pipeline.
 */
class TrafficLog
{
  public:
    explicit TrafficLog(int nprocs = 0) : nprocs_(nprocs) {}

    void add(const MessageRecord &rec) { records_.push_back(rec); }

    const std::vector<MessageRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    int nprocs() const { return nprocs_; }
    void setNprocs(int n) { nprocs_ = n; }

    /**
     * Inter-arrival times between successive injections.
     * @param src  Restrict to one source processor, or -1 for the
     *             aggregate arrival process at the network.
     */
    std::vector<double> interArrivalTimes(int src = -1) const;

    /** Message counts from `src` to every destination. */
    std::vector<double> destinationCounts(int src) const;

    /** Byte volume from `src` to every destination. */
    std::vector<double> destinationBytes(int src) const;

    /** Messages injected by each processor. */
    std::vector<double> sourceCounts() const;

    /** All message lengths, in injection order. */
    std::vector<double> messageLengths() const;

    /** All end-to-end latencies. */
    std::vector<double> latencies() const;

    /** Time of the last delivery (run makespan proxy). */
    double lastDeliverTime() const;

    /** Subset view containing only messages of one kind. */
    TrafficLog filterKind(MessageKind kind) const;

  private:
    int nprocs_;
    std::vector<MessageRecord> records_;
};

} // namespace cchar::trace

#endif // CCHAR_TRACE_RECORD_HH
