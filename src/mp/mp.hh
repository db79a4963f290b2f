/**
 * @file
 * Message-passing runtime (the static-strategy substrate).
 *
 * The paper's static strategy runs MPI applications on an IBM SP2 and
 * traces their communication calls at the application level. This
 * module provides an MPI-subset runtime executing on the simulation
 * kernel with the paper's measured SP2 communication-software cost
 * model ("the software overheads amount to 4.63e-2 x + 73.42
 * microseconds to transfer x bytes of data"), a point-to-point
 * matching engine, collectives built from point-to-point messages,
 * and an application-level trace collector emitting the
 * (src, dst, length, time-since-last-activity) records the 2-D mesh
 * simulator consumes.
 *
 * Collective implementations (documented for reproducibility):
 *  - barrier: dissemination algorithm, ceil(log2 P) rounds;
 *  - bcast: root sends linearly to every rank, each rank returns a
 *    small completion ack to the root. The acks reproduce the paper's
 *    observation that the broadcast root p0 becomes every processor's
 *    "favorite" destination by message count while the byte volume
 *    stays uniform (Figure 9 discussion);
 *  - reduce: binomial tree toward the root;
 *  - allreduce: reduce followed by bcast;
 *  - alltoall: linear-shift pairwise exchange.
 */

#ifndef CCHAR_MP_MP_HH
#define CCHAR_MP_MP_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "desim/desim.hh"
#include "mesh/mesh.hh"
#include "trace/record.hh"
#include "trace/trace.hh"

namespace cchar::mp {

/** Runtime parameters. */
struct MpConfig
{
    mesh::MeshConfig mesh{};
    /** SP2 software overhead: base + perByte * x microseconds. */
    double overheadBase = 73.42;
    double overheadPerByte = 0.0463;
    /** Fraction of the overhead charged at the sender. */
    double sendFraction = 0.5;
    /** Size of a dataless control/ack message. */
    int controlBytes = 8;

    MpConfig()
    {
        mesh.width = 4;
        mesh.height = 2;
    }

    int nranks() const { return mesh.nodes(); }

    double
    overhead(int bytes) const
    {
        return overheadBase + overheadPerByte * static_cast<double>(bytes);
    }
};

class MpContext;

/** The message-passing world: ranks, network, matching, tracing. */
class MpWorld
{
  public:
    /**
     * @param faults  Fault oracle of the network (see MeshNetwork);
     *        when set, sends run the plan's retransmission protocol.
     */
    MpWorld(desim::Simulator &sim, const MpConfig &cfg,
            fault::FaultInjector *faults = nullptr);

    MpWorld(const MpWorld &) = delete;
    MpWorld &operator=(const MpWorld &) = delete;

    /** Destroys suspended rank frames before the network they use. */
    ~MpWorld();

    const MpConfig &config() const { return cfg_; }
    int size() const { return cfg_.nranks(); }
    desim::Simulator &sim() { return *sim_; }
    mesh::MeshNetwork &network() { return *net_; }
    trace::TrafficLog &log() { return log_; }

    /** Collect an application-level trace of all sends. */
    void enableTracing() { tracing_ = true; }
    const trace::Trace &collectedTrace() const { return trace_; }

    /** Register rank `rank`'s program. */
    void spawnRank(int rank, desim::Task<void> body,
                   const std::string &name = {});

    /**
     * Run to completion.
     * @throws core::CCharError (SimError; derives std::runtime_error)
     *         with per-rank wait-state diagnostics on deadlock.
     */
    void run();

    // -------- resilience accounting (fault-injection runs) --------

    /** Data packets re-sent after an ack timeout. */
    std::uint64_t retransmits() const { return retransmits_; }
    /** Sends abandoned after exhausting the retry budget. */
    std::uint64_t deliveryFailures() const { return deliveryFailures_; }
    /** Corrupted packets discarded at the receiver. */
    std::uint64_t corruptDiscards() const { return corruptDiscards_; }
    /** Acks received by senders. */
    std::uint64_t acksReceived() const { return acksReceived_; }
    /** Retransmissions attributed to the sending rank. */
    const std::vector<std::uint64_t> &rankRetransmits() const
    {
        return rankRetransmits_;
    }
    /** Corrupt discards attributed to the receiving rank. */
    const std::vector<std::uint64_t> &rankCorruptDiscards() const
    {
        return rankCorruptDiscards_;
    }

  private:
    friend class MpContext;

    /** Payload of a point-to-point message. */
    struct MpMsg
    {
        std::int32_t srcRank;
        std::int32_t tag;
        std::int32_t bytes;
        /** Fault-mode delivery id (unique per logical send; 0 = none).
         *  Stop-and-wait numbers a single global space; the windowed
         *  protocol numbers each (src, dst) connection separately. */
        std::uint64_t seq = 0;
        /** Fault-mode delivery acknowledgement (control packet). */
        bool isAck = false;
        /** Window-mode ack: every seq <= ack was delivered in order
         *  (cumulative); `seq` above carries the selective ack. */
        std::uint64_t ack = 0;
        /** Window-mode data: the sender's lowest in-flight seq when
         *  this copy left. Seqs below it are resolved (acked or
         *  abandoned), so the receiver may close those holes. */
        std::uint64_t winBase = 0;
    };

    struct RecvWaiter
    {
        desim::SimEvent *event;
        std::int32_t *bytesOut;
    };

    /** Window-mode receiver state for one (sender -> this rank)
     *  connection: in-order delivery with an out-of-order buffer. */
    struct RecvConn
    {
        /** Next seq to deliver up to the application. */
        std::uint64_t expected = 1;
        /** Highest sender window base seen on any arrival. */
        std::uint64_t maxBase = 1;
        /** Intact arrivals ahead of `expected`, keyed by seq. */
        std::map<std::uint64_t, MpMsg> buffered;
        /** Seqs already acked (retransmit dedup). */
        std::unordered_set<std::uint64_t> seen;
    };

    struct RankState
    {
        /** End time of the rank's last network activity (tracing). */
        double lastActivity = 0.0;
        std::map<std::pair<int, int>, std::deque<std::int32_t>> arrived;
        std::map<std::pair<int, int>, std::deque<RecvWaiter>> waiters;
        /** Fault-mode: seqs already delivered up (retransmit dedup). */
        std::unordered_set<std::uint64_t> receivedSeqs;
        /** Window-mode receiver connections, keyed by source rank. */
        std::map<int, RecvConn> recvConns;
    };

    /** Sender-side wait for one delivery attempt's ack. Heap-shared
     *  between the sending coroutine and the scheduled timeout
     *  callback, which may fire after the coroutine frame is gone. */
    struct AckWait
    {
        explicit AckWait(desim::Simulator &sim) : ev(sim) {}
        desim::SimEvent ev;
        bool acked = false;
    };

    /** Window-mode sender state for one (src -> dst) connection. */
    struct Connection
    {
        /** Next seq to assign on this connection. */
        std::uint64_t nextSeq = 1;
        /** Unacked transmissions, keyed by seq. A slot's AckWait is
         *  replaced on every retransmission attempt. */
        std::map<std::uint64_t, std::shared_ptr<AckWait>> flight;
        /** Senders blocked on a full window, FIFO. */
        std::deque<desim::SimEvent *> slotWaiters;
    };

    desim::Task<void> dispatcher(int rank);

    /**
     * Fault-mode reliable transmit: post the packet, wait for the
     * receiver's ack, retransmit with exponential backoff on timeout.
     * Gives up (and counts a delivery failure) after the plan's
     * maxAttempts; retries forever when the budget is unbounded.
     */
    desim::Task<void> transmitReliable(int src, int dst, int bytes,
                                       int tag, trace::MessageKind kind,
                                       std::uint64_t flowId);

    /**
     * Window-mode admission: waits for a free window slot on the
     * (src, dst) connection, assigns the next seq and hands delivery
     * to a background windowDelivery() process, so up to
     * retry().window sends pipeline per destination.
     */
    desim::Task<void> transmitWindowed(int src, int dst, int bytes,
                                       int tag, trace::MessageKind kind,
                                       std::uint64_t flowId);

    /** Window-mode per-packet delivery: transmit, retransmit with
     *  backoff, resolve as acked or as a delivery failure. */
    desim::Task<void> windowDelivery(int src, int dst, int bytes,
                                     int tag, trace::MessageKind kind,
                                     std::uint64_t flowId,
                                     std::uint64_t seq);

    /** Lowest in-flight seq (next seq when the window is empty). */
    static std::uint64_t windowBase(const Connection &conn);

    /** Resolve one in-flight seq as acked; frees its window slot. */
    void ackFlight(Connection &conn, std::uint64_t seq);

    /** Wake the longest-waiting sender blocked on the window. */
    void wakeSlot(Connection &conn);

    /** Hand one in-order data message to the matching engine. */
    void deliverData(int rank, RankState &state, const MpMsg &msg);

    /** Post an ack control packet for a delivered data packet;
     *  `cumulative` is the window-mode cumulative ack (0 for the
     *  stop-and-wait protocol, which ignores it). */
    void sendAck(int rank, const MpMsg &msg,
                 std::uint64_t cumulative = 0);

    desim::Simulator *sim_;
    MpConfig cfg_;
    trace::TrafficLog log_;
    trace::Trace trace_;
    bool tracing_ = false;
    std::unique_ptr<mesh::MeshNetwork> net_;
    std::vector<RankState> ranks_;
    std::vector<desim::ProcessRef> appProcesses_;
    std::vector<int> appRanks_;

    /** Fault oracle; the retransmission protocol runs iff it is set. */
    fault::FaultInjector *faults_ = nullptr;
    /** Sliding-window protocol active (retry().window > 1). */
    bool windowMode_ = false;
    std::uint64_t nextSeq_ = 1;
    std::map<std::uint64_t, std::shared_ptr<AckWait>> pendingAcks_;
    /** Window-mode sender connections, keyed by (src, dst). */
    std::map<std::pair<int, int>, Connection> connections_;
    std::uint64_t retransmits_ = 0;
    std::uint64_t deliveryFailures_ = 0;
    std::uint64_t corruptDiscards_ = 0;
    std::uint64_t acksReceived_ = 0;
    std::vector<std::uint64_t> rankRetransmits_;
    std::vector<std::uint64_t> rankCorruptDiscards_;

    // Observability handles (detached when no sinks are installed).
    obs::Counter sendCtr_;
    obs::Counter recvCtr_;
    obs::Counter bytesSentCtr_;
    obs::Counter retransmitCtr_;
    obs::Counter deliveryFailCtr_;
    obs::Counter corruptDiscardCtr_;
    obs::Counter ackCtr_;
    obs::Histogram backoffHist_;
    obs::FlowTracker *flows_ = nullptr;
    /** Per-rank activity sink (blocked spans + barrier markers). */
    obs::RankActivityTracker *activity_ = nullptr;
};

/** Per-rank communication interface handed to application code. */
class MpContext
{
  public:
    MpContext(MpWorld &world, int rank) : world_(&world), rank_(rank) {}

    int rank() const { return rank_; }
    int size() const { return world_->size(); }
    MpWorld &world() { return *world_; }

    /** Local computation for `us` microseconds. */
    desim::Task<void> compute(double us);

    /**
     * Blocking send of `bytes` to `dst`. Charges the sender's share
     * of the SP2 software overhead, then injects the message.
     */
    desim::Task<void> send(int dst, int bytes, int tag = 0);

    /**
     * Blocking receive matching (src, tag). Charges the receiver's
     * share of the overhead after the message arrives.
     * @return the received byte count.
     */
    desim::Task<int> recv(int src, int tag = 0);

    /** Dissemination barrier over all ranks. */
    desim::Task<void> barrier();

    /** Broadcast `bytes` from `root` (linear + completion acks). */
    desim::Task<void> bcast(int root, int bytes);

    /** Binomial-tree reduction of `bytes` to `root`. */
    desim::Task<void> reduce(int root, int bytes);

    /** reduce + bcast. */
    desim::Task<void> allreduce(int bytes);

    /** Linear-shift all-to-all, `bytes_per_pair` to every other rank. */
    desim::Task<void> alltoall(int bytes_per_pair);

    /** Every rank sends `bytes` to `root` (linear gather). */
    desim::Task<void> gather(int root, int bytes);

    /** `root` sends `bytes` to every rank (linear scatter). */
    desim::Task<void> scatter(int root, int bytes);

    /** Ring allgather: P-1 steps of `bytes` to the next rank. */
    desim::Task<void> allgather(int bytes);

  private:
    /** Internal tags reserved for collectives. */
    static constexpr int tagBarrier = 1 << 20;
    static constexpr int tagBcast = 1 << 21;
    static constexpr int tagBcastAck = (1 << 21) + 1;
    static constexpr int tagReduce = 1 << 22;
    static constexpr int tagAlltoall = 1 << 23;
    static constexpr int tagGather = 1 << 24;
    static constexpr int tagScatter = 1 << 25;
    static constexpr int tagAllgather = 1 << 26;

    desim::Task<void> sendInternal(int dst, int bytes, int tag,
                                   trace::MessageKind kind);
    desim::Task<int> recvInternal(int src, int tag);

    MpWorld *world_;
    int rank_;
};

} // namespace cchar::mp

#endif // CCHAR_MP_MP_HH
