#include "mp.hh"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/status.hh"

namespace cchar::mp {

MpWorld::MpWorld(desim::Simulator &sim, const MpConfig &cfg,
                 fault::FaultInjector *faults)
    : sim_(&sim), cfg_(cfg), log_(cfg.nranks()), trace_(cfg.nranks()),
      faults_(faults)
{
    net_ = std::make_unique<mesh::MeshNetwork>(*sim_, cfg_.mesh, &log_,
                                               faults_);
    ranks_.resize(static_cast<std::size_t>(cfg_.nranks()));
    if (faults_) {
        windowMode_ = faults_->plan().retry().window > 1;
        rankRetransmits_.assign(
            static_cast<std::size_t>(cfg_.nranks()), 0);
        rankCorruptDiscards_.assign(
            static_cast<std::size_t>(cfg_.nranks()), 0);
    }
    if (obs::MetricsRegistry *reg = obs::metrics()) {
        sendCtr_ = reg->counter("mp.sends");
        recvCtr_ = reg->counter("mp.recvs");
        bytesSentCtr_ = reg->counter("mp.bytes_sent");
        if (faults_) {
            // Registered only in fault mode so a fault-free run's
            // metrics dump stays byte-identical.
            retransmitCtr_ = reg->counter("mp.retransmits");
            deliveryFailCtr_ = reg->counter("mp.delivery_failures");
            corruptDiscardCtr_ = reg->counter("mp.corrupt_discards");
            ackCtr_ = reg->counter("mp.acks");
            backoffHist_ = reg->histogram("mp.backoff_us");
        }
    }
    flows_ = obs::flows();
    activity_ = obs::rankActivity();
    for (int r = 0; r < cfg_.nranks(); ++r)
        sim_->spawn(dispatcher(r), "mp-dispatcher-" + std::to_string(r));
}

MpWorld::~MpWorld()
{
    sim_->destroyProcesses();
}

desim::Task<void>
MpWorld::dispatcher(int rank)
{
    auto &queue = net_->rxQueue(rank);
    auto &state = ranks_[static_cast<std::size_t>(rank)];
    for (;;) {
        mesh::Packet pkt = co_await queue.receive();
        auto msg = std::any_cast<MpMsg>(pkt.payload);
        if (faults_) {
            if (pkt.corrupted) {
                // Corrupted packets (data or ack) are discarded
                // unacknowledged; the sender's timeout recovers.
                ++corruptDiscards_;
                corruptDiscardCtr_.add(1);
                ++rankCorruptDiscards_[static_cast<std::size_t>(rank)];
                continue;
            }
            if (windowMode_) {
                if (msg.isAck) {
                    ++acksReceived_;
                    ackCtr_.add(1);
                    auto cit = connections_.find(
                        std::make_pair(rank,
                                       static_cast<int>(msg.srcRank)));
                    if (cit != connections_.end()) {
                        Connection &conn = cit->second;
                        // Cumulative first (recovers lost selective
                        // acks), then the selective ack itself.
                        while (!conn.flight.empty() &&
                               conn.flight.begin()->first <= msg.ack)
                            ackFlight(conn,
                                      conn.flight.begin()->first);
                        ackFlight(conn, msg.seq);
                    }
                    continue;
                }
                RecvConn &rconn =
                    state.recvConns[static_cast<int>(msg.srcRank)];
                bool fresh = rconn.seen.insert(msg.seq).second;
                if (fresh && msg.seq >= rconn.expected) {
                    if (msg.seq == rconn.expected) {
                        deliverData(rank, state, msg);
                        ++rconn.expected;
                    } else {
                        rconn.buffered.emplace(msg.seq, msg);
                    }
                }
                if (msg.winBase > rconn.maxBase)
                    rconn.maxBase = msg.winBase;
                // Flush: deliver consecutive buffered arrivals, and
                // skip holes the sender has resolved (a seq below its
                // window base was acked — then it is buffered or
                // delivered — or abandoned as a delivery failure).
                for (;;) {
                    auto bit = rconn.buffered.find(rconn.expected);
                    if (bit != rconn.buffered.end()) {
                        deliverData(rank, state, bit->second);
                        rconn.buffered.erase(bit);
                        ++rconn.expected;
                    } else if (rconn.expected < rconn.maxBase) {
                        ++rconn.expected;
                    } else {
                        break;
                    }
                }
                // Ack every intact arrival (duplicates included):
                // selective for this seq, cumulative for the in-order
                // prefix delivered so far.
                sendAck(rank, msg, rconn.expected - 1);
                continue;
            }
            if (msg.isAck) {
                ++acksReceived_;
                ackCtr_.add(1);
                auto it = pendingAcks_.find(msg.seq);
                if (it != pendingAcks_.end()) {
                    it->second->acked = true;
                    it->second->ev.trigger();
                    pendingAcks_.erase(it);
                }
                continue;
            }
            // Ack every intact data packet — a duplicate means the
            // earlier ack was lost, so it must be acked again.
            sendAck(rank, msg);
            if (!state.receivedSeqs.insert(msg.seq).second)
                continue; // retransmitted duplicate, already delivered
        }
        deliverData(rank, state, msg);
    }
}

void
MpWorld::deliverData(int rank, RankState &state, const MpMsg &msg)
{
    (void)rank;
    auto key = std::make_pair(static_cast<int>(msg.srcRank),
                              static_cast<int>(msg.tag));
    auto wit = state.waiters.find(key);
    if (wit != state.waiters.end() && !wit->second.empty()) {
        RecvWaiter w = wit->second.front();
        wit->second.pop_front();
        *w.bytesOut = msg.bytes;
        w.event->trigger();
    } else {
        state.arrived[key].push_back(msg.bytes);
    }
}

void
MpWorld::sendAck(int rank, const MpMsg &msg, std::uint64_t cumulative)
{
    mesh::Packet ack;
    ack.src = rank;
    ack.dst = msg.srcRank;
    ack.bytes = cfg_.controlBytes;
    ack.kind = trace::MessageKind::Control;
    ack.tag = static_cast<std::uint64_t>(msg.tag);
    ack.payload = MpMsg{static_cast<std::int32_t>(rank), msg.tag, 0,
                        msg.seq, true, cumulative};
    net_->post(std::move(ack));
}

std::uint64_t
MpWorld::windowBase(const Connection &conn)
{
    return conn.flight.empty() ? conn.nextSeq
                               : conn.flight.begin()->first;
}

void
MpWorld::wakeSlot(Connection &conn)
{
    if (!conn.slotWaiters.empty()) {
        conn.slotWaiters.front()->trigger();
        conn.slotWaiters.pop_front();
    }
}

void
MpWorld::ackFlight(Connection &conn, std::uint64_t seq)
{
    auto it = conn.flight.find(seq);
    if (it == conn.flight.end())
        return; // duplicate / stale ack for a resolved seq
    if (it->second) {
        it->second->acked = true;
        it->second->ev.trigger();
    }
    conn.flight.erase(it);
    wakeSlot(conn);
}

desim::Task<void>
MpWorld::transmitWindowed(int src, int dst, int bytes, int tag,
                          trace::MessageKind kind, std::uint64_t flowId)
{
    Connection &conn =
        connections_[std::make_pair(src, dst)];
    const fault::RetryConfig &rc = faults_->plan().retry();
    while (conn.flight.size() >= static_cast<std::size_t>(rc.window)) {
        // Window full: queue FIFO behind the oldest blocked sender so
        // admission order stays deterministic.
        desim::SimEvent ev{*sim_};
        conn.slotWaiters.push_back(&ev);
        co_await ev.wait();
    }
    std::uint64_t seq = conn.nextSeq++;
    conn.flight[seq] = std::make_shared<AckWait>(*sim_);
    sim_->spawn(windowDelivery(src, dst, bytes, tag, kind, flowId, seq),
                "mp-window-" + std::to_string(src) + "-" +
                    std::to_string(dst) + "-" + std::to_string(seq));
}

desim::Task<void>
MpWorld::windowDelivery(int src, int dst, int bytes, int tag,
                        trace::MessageKind kind, std::uint64_t flowId,
                        std::uint64_t seq)
{
    Connection &conn =
        connections_[std::make_pair(src, dst)];
    const fault::RetryConfig &rc = faults_->plan().retry();
    double timeout = rc.ackTimeoutUs;
    for (int attempt = 1;; ++attempt) {
        auto fit = conn.flight.find(seq);
        if (fit == conn.flight.end())
            co_return; // resolved by a cumulative ack meanwhile
        std::shared_ptr<AckWait> wait = fit->second;
        if (attempt > 1) {
            // Fresh wait state per attempt: the previous timeout
            // callback still holds the old one.
            wait = std::make_shared<AckWait>(*sim_);
            fit->second = wait;
        }
        mesh::Packet pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.bytes = bytes;
        pkt.kind = kind;
        pkt.tag = static_cast<std::uint64_t>(tag);
        // Each retransmission is its own network flow; pass the
        // app-level flow only on the first wire attempt.
        pkt.flow = attempt == 1 ? flowId : 0;
        pkt.payload = MpMsg{static_cast<std::int32_t>(src), tag, bytes,
                            seq, false, 0, windowBase(conn)};
        net_->post(std::move(pkt));
        sim_->schedule(
            [wait] {
                if (!wait->acked)
                    wait->ev.trigger();
            },
            sim_->now() + timeout);
        co_await wait->ev.wait();
        if (wait->acked)
            co_return; // ackFlight already freed the slot
        if (!rc.unbounded() && attempt >= rc.maxAttempts) {
            ++deliveryFailures_;
            deliveryFailCtr_.add(1);
            std::ostringstream os;
            os << "mp: delivery failure " << src << "->" << dst
               << " tag=" << tag << " bytes=" << bytes
               << " seq=" << seq << " after " << attempt
               << " attempts at t=" << std::fixed
               << std::setprecision(2) << sim_->now() << " us";
            core::reportDiagnostic(core::DiagSeverity::Error, os.str());
            // Abandon: free the slot so the window cannot wedge on a
            // dead destination, and let the advancing window base
            // tell the receiver to close the hole.
            conn.flight.erase(seq);
            wakeSlot(conn);
            co_return;
        }
        ++retransmits_;
        retransmitCtr_.add(1);
        ++rankRetransmits_[static_cast<std::size_t>(src)];
        backoffHist_.record(timeout);
        timeout *= rc.backoffFactor;
    }
}

desim::Task<void>
MpWorld::transmitReliable(int src, int dst, int bytes, int tag,
                          trace::MessageKind kind, std::uint64_t flowId)
{
    const fault::RetryConfig &rc = faults_->plan().retry();
    std::uint64_t seq = nextSeq_++;
    double timeout = rc.ackTimeoutUs;
    for (int attempt = 1;; ++attempt) {
        mesh::Packet pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.bytes = bytes;
        pkt.kind = kind;
        pkt.tag = static_cast<std::uint64_t>(tag);
        // Each retransmission is its own network flow; pass the
        // app-level flow only on the first wire attempt.
        pkt.flow = attempt == 1 ? flowId : 0;
        pkt.payload = MpMsg{static_cast<std::int32_t>(src), tag, bytes,
                            seq, false};
        net_->post(std::move(pkt));

        // The timeout callback may outlive this coroutine frame (the
        // ack can land first), so the wait state is heap-shared.
        auto wait = std::make_shared<AckWait>(*sim_);
        pendingAcks_[seq] = wait;
        sim_->schedule(
            [wait] {
                if (!wait->acked)
                    wait->ev.trigger();
            },
            sim_->now() + timeout);
        co_await wait->ev.wait();
        if (wait->acked)
            co_return;

        pendingAcks_.erase(seq);
        if (!rc.unbounded() && attempt >= rc.maxAttempts) {
            ++deliveryFailures_;
            deliveryFailCtr_.add(1);
            std::ostringstream os;
            os << "mp: delivery failure " << src << "->" << dst
               << " tag=" << tag << " bytes=" << bytes << " seq=" << seq
               << " after " << attempt << " attempts at t=" << std::fixed
               << std::setprecision(2) << sim_->now() << " us";
            core::reportDiagnostic(core::DiagSeverity::Error, os.str());
            co_return;
        }
        ++retransmits_;
        retransmitCtr_.add(1);
        ++rankRetransmits_[static_cast<std::size_t>(src)];
        backoffHist_.record(timeout);
        timeout *= rc.backoffFactor;
    }
}

void
MpWorld::spawnRank(int rank, desim::Task<void> body,
                   const std::string &name)
{
    std::string label = name;
    if (label.empty())
        label = "rank-" + std::to_string(rank);
    appProcesses_.push_back(sim_->spawn(std::move(body), label));
    appRanks_.push_back(rank);
}

void
MpWorld::run()
{
    sim_->run();
    std::ostringstream stuck;
    std::ostringstream detail;
    bool any = false;
    for (std::size_t i = 0; i < appProcesses_.size(); ++i) {
        const auto &ref = appProcesses_[i];
        if (ref.done())
            continue;
        stuck << (any ? ", " : "") << ref.name();
        any = true;

        // Wait-state snapshot of the stuck rank: what it is blocked
        // on and what arrived that nobody consumed.
        int rank = appRanks_[i];
        const auto &state = ranks_[static_cast<std::size_t>(rank)];
        detail << "  " << ref.name() << ": last network activity at t="
               << std::fixed << std::setprecision(2)
               << state.lastActivity << " us";
        bool first = true;
        for (const auto &[key, waiters] : state.waiters) {
            if (waiters.empty())
                continue;
            detail << (first ? "; waiting on recv " : ", ") << "(src="
                   << key.first << ", tag=" << key.second << ")";
            first = false;
        }
        std::size_t unconsumed = 0;
        for (const auto &[key, queue] : state.arrived)
            unconsumed += queue.size();
        if (unconsumed > 0)
            detail << "; " << unconsumed << " unconsumed arrival"
                   << (unconsumed == 1 ? "" : "s");
        detail << "\n";
    }
    if (any) {
        std::ostringstream os;
        os << "mp: application deadlock; stuck ranks: " << stuck.str()
           << "\n  at t=" << std::fixed << std::setprecision(2)
           << sim_->now() << " us; network: " << net_->busyLanes()
           << " lanes busy, " << net_->queuedAcquires()
           << " queued acquires";
        if (faults_) {
            os << "; " << deliveryFailures_ << " delivery failures, "
               << retransmits_ << " retransmits";
        }
        os << "\n" << detail.str();
        core::reportDiagnostic(core::DiagSeverity::Error, os.str());
        throw core::CCharError(core::StatusCode::SimError, os.str());
    }
}

// ---------------------------------------------------------------
// MpContext

desim::Task<void>
MpContext::compute(double us)
{
    co_await world_->sim().delay(us);
}

desim::Task<void>
MpContext::sendInternal(int dst, int bytes, int tag,
                        trace::MessageKind kind)
{
    if (dst == rank_)
        throw std::invalid_argument("mp: send to self");
    if (dst < 0 || dst >= size())
        throw std::invalid_argument("mp: destination out of range");

    auto &state = world_->ranks_[static_cast<std::size_t>(rank_)];
    double now = world_->sim().now();
    if (world_->tracing_) {
        trace::TraceEvent ev;
        ev.src = rank_;
        ev.dst = dst;
        ev.bytes = bytes;
        ev.kind = kind;
        ev.sinceLast = now - state.lastActivity;
        world_->trace_.add(ev);
    }

    // Open the flow at the application-level send, so the record's
    // generate->inject gap captures the sender-side software overhead.
    std::uint64_t flowId = 0;
    if (world_->flows_) {
        flowId = world_->flows_->open(static_cast<int>(kind), rank_, dst,
                                      bytes, now);
    }

    // The blocked-send span covers everything that suspends the rank:
    // the sender-side overhead delay and, in fault mode, the reliable
    // transmit with its retransmission waits.
    if (world_->activity_) {
        world_->activity_->beginBlocked(rank_, obs::RankState::BlockedSend,
                                        now);
    }

    // Sender's share of the SP2 software overhead.
    const MpConfig &cfg = world_->config();
    co_await world_->sim().delay(cfg.sendFraction * cfg.overhead(bytes));

    if (world_->windowMode_) {
        // Sliding window: blocks only while the (rank, dst) window is
        // full; delivery (and any retransmission) continues in the
        // background so consecutive sends pipeline.
        co_await world_->transmitWindowed(rank_, dst, bytes, tag, kind,
                                          flowId);
    } else if (world_->faults_) {
        // Reliable delivery: blocks until acked or the retry budget
        // is spent, so a lossy link slows the sender rather than
        // silently losing application messages.
        co_await world_->transmitReliable(rank_, dst, bytes, tag, kind,
                                          flowId);
    } else {
        mesh::Packet pkt;
        pkt.src = rank_;
        pkt.dst = dst;
        pkt.bytes = bytes;
        pkt.kind = kind;
        pkt.tag = static_cast<std::uint64_t>(tag);
        pkt.flow = flowId;
        pkt.payload = MpWorld::MpMsg{rank_, tag, bytes};
        world_->network().post(std::move(pkt));
    }
    world_->sendCtr_.add(1);
    world_->bytesSentCtr_.add(static_cast<std::uint64_t>(bytes));
    state.lastActivity = world_->sim().now();
    if (world_->activity_)
        world_->activity_->endBlocked(rank_, state.lastActivity);
}

desim::Task<int>
MpContext::recvInternal(int src, int tag)
{
    if (src == rank_)
        throw std::invalid_argument("mp: receive from self");
    if (src < 0 || src >= size())
        throw std::invalid_argument("mp: source out of range");

    auto &state = world_->ranks_[static_cast<std::size_t>(rank_)];
    // The blocked-recv span covers the wait for the message (if it has
    // not already arrived) plus the receiver-side overhead delay.
    if (world_->activity_) {
        world_->activity_->beginBlocked(rank_, obs::RankState::BlockedRecv,
                                        world_->sim().now());
    }
    auto key = std::make_pair(src, tag);
    std::int32_t bytes = 0;
    auto ait = state.arrived.find(key);
    if (ait != state.arrived.end() && !ait->second.empty()) {
        bytes = ait->second.front();
        ait->second.pop_front();
    } else {
        desim::SimEvent ev{world_->sim()};
        state.waiters[key].push_back(MpWorld::RecvWaiter{&ev, &bytes});
        co_await ev.wait();
    }
    // Receiver's share of the overhead.
    const MpConfig &cfg = world_->config();
    co_await world_->sim().delay((1.0 - cfg.sendFraction) *
                                 cfg.overhead(bytes));
    world_->recvCtr_.add(1);
    state.lastActivity = world_->sim().now();
    if (world_->activity_)
        world_->activity_->endBlocked(rank_, state.lastActivity);
    co_return bytes;
}

desim::Task<void>
MpContext::send(int dst, int bytes, int tag)
{
    co_await sendInternal(dst, bytes, tag, trace::MessageKind::Data);
}

desim::Task<int>
MpContext::recv(int src, int tag)
{
    int bytes = co_await recvInternal(src, tag);
    co_return bytes;
}

desim::Task<void>
MpContext::barrier()
{
    // Barrier entry is the per-rank synchronization marker: marker k
    // across all ranks defines skew sample k in the rank-activity
    // analysis.
    if (world_->activity_)
        world_->activity_->noteMarker(rank_, world_->sim().now());
    int p = size();
    for (int dist = 1; dist < p; dist *= 2) {
        int to = (rank_ + dist) % p;
        int from = (rank_ - dist % p + p) % p;
        co_await sendInternal(to, world_->config().controlBytes,
                              tagBarrier + dist, trace::MessageKind::Sync);
        (void)co_await recvInternal(from, tagBarrier + dist);
    }
}

desim::Task<void>
MpContext::bcast(int root, int bytes)
{
    // Linear broadcast with completion acks (see file comment).
    int ctl = world_->config().controlBytes;
    if (rank_ == root) {
        for (int r = 0; r < size(); ++r) {
            if (r != root)
                co_await sendInternal(r, bytes, tagBcast,
                                      trace::MessageKind::Data);
        }
        for (int r = 0; r < size(); ++r) {
            if (r != root)
                (void)co_await recvInternal(r, tagBcastAck);
        }
    } else {
        (void)co_await recvInternal(root, tagBcast);
        co_await sendInternal(root, ctl, tagBcastAck,
                              trace::MessageKind::Control);
    }
}

desim::Task<void>
MpContext::reduce(int root, int bytes)
{
    // Binomial tree rooted at `root` over the rotated rank space.
    int p = size();
    int vrank = (rank_ - root + p) % p;
    int dist = 1;
    while (dist < p) {
        if ((vrank & dist) != 0) {
            int parent = (((vrank & ~dist)) + root) % p;
            co_await sendInternal(parent, bytes, tagReduce + dist,
                                  trace::MessageKind::Data);
            break;
        }
        int child = vrank | dist;
        if (child < p) {
            (void)co_await recvInternal((child + root) % p,
                                        tagReduce + dist);
        }
        dist *= 2;
    }
}

desim::Task<void>
MpContext::allreduce(int bytes)
{
    co_await reduce(0, bytes);
    co_await bcast(0, bytes);
}

desim::Task<void>
MpContext::alltoall(int bytes_per_pair)
{
    int p = size();
    for (int step = 1; step < p; ++step) {
        int to = (rank_ + step) % p;
        int from = (rank_ - step + p) % p;
        co_await sendInternal(to, bytes_per_pair, tagAlltoall + step,
                              trace::MessageKind::Data);
        (void)co_await recvInternal(from, tagAlltoall + step);
    }
}

desim::Task<void>
MpContext::gather(int root, int bytes)
{
    if (rank_ == root) {
        for (int r = 0; r < size(); ++r) {
            if (r != root)
                (void)co_await recvInternal(r, tagGather);
        }
    } else {
        co_await sendInternal(root, bytes, tagGather,
                              trace::MessageKind::Data);
    }
}

desim::Task<void>
MpContext::scatter(int root, int bytes)
{
    if (rank_ == root) {
        for (int r = 0; r < size(); ++r) {
            if (r != root)
                co_await sendInternal(r, bytes, tagScatter,
                                      trace::MessageKind::Data);
        }
    } else {
        (void)co_await recvInternal(root, tagScatter);
    }
}

desim::Task<void>
MpContext::allgather(int bytes)
{
    // Ring algorithm: each rank forwards the accumulated block to its
    // successor for P-1 steps.
    int p = size();
    int next = (rank_ + 1) % p;
    int prev = (rank_ - 1 + p) % p;
    for (int step = 0; step < p - 1; ++step) {
        co_await sendInternal(next, bytes, tagAllgather + step,
                              trace::MessageKind::Data);
        (void)co_await recvInternal(prev, tagAllgather + step);
    }
}

} // namespace cchar::mp
