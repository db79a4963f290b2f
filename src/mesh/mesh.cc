#include "mesh.hh"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace cchar::mesh {

namespace {

/** Direction encoding for per-node outgoing channels. */
enum Direction { East = 0, West = 1, North = 2, South = 3 };

/** Signed steps toward dst in one dimension (mesh: direct). */
int
meshDelta(int from, int to)
{
    return to - from;
}

/** Signed steps toward dst in one ring (torus: shortest way). */
int
torusDelta(int from, int to, int extent)
{
    int fwd = (to - from + extent) % extent;  // steps in + direction
    int bwd = fwd - extent;                   // steps in - direction
    return fwd <= -bwd ? fwd : bwd;
}

} // namespace

MeshNetwork::~MeshNetwork()
{
    sim_->destroyProcesses();
}

MeshNetwork::MeshNetwork(desim::Simulator &sim, const MeshConfig &cfg,
                         trace::TrafficLog *log,
                         fault::FaultInjector *faults)
    : sim_(&sim), cfg_(cfg), log_(log), faults_(faults)
{
    if (cfg_.width < 1 || cfg_.height < 1)
        throw std::invalid_argument("mesh: degenerate dimensions");
    if (cfg_.flitBytes < 1)
        throw std::invalid_argument("mesh: flitBytes must be positive");
    if (cfg_.virtualChannels < 1)
        throw std::invalid_argument("mesh: need at least one VC");
    if (cfg_.topology == Topology::Torus && cfg_.virtualChannels < 2)
        throw std::invalid_argument("mesh: torus needs >= 2 virtual "
                                    "channels (dateline scheme)");

    int n = cfg_.nodes();
    bool torus = cfg_.topology == Topology::Torus;
    if (log_)
        log_->setNprocs(n);
    lanes_.resize(static_cast<std::size_t>(n) * 4);
    for (int node = 0; node < n; ++node) {
        int x = nodeX(node), y = nodeY(node);
        auto makeLanes = [&](int dir, const char *label) {
            auto &vcs =
                lanes_[static_cast<std::size_t>(node) * 4 +
                       static_cast<std::size_t>(dir)];
            for (int vc = 0; vc < cfg_.virtualChannels; ++vc) {
                vcs.push_back(std::make_unique<desim::Resource>(
                    *sim_, 1,
                    "ch-" + std::to_string(node) + "-" + label + "-v" +
                        std::to_string(vc)));
            }
        };
        if (x + 1 < cfg_.width || (torus && cfg_.width > 1))
            makeLanes(East, "E");
        if (x > 0 || (torus && cfg_.width > 1))
            makeLanes(West, "W");
        if (y + 1 < cfg_.height || (torus && cfg_.height > 1))
            makeLanes(North, "N");
        if (y > 0 || (torus && cfg_.height > 1))
            makeLanes(South, "S");
        injection_.push_back(std::make_unique<desim::Resource>(
            *sim_, 1, "inj-" + std::to_string(node)));
        rx_.push_back(std::make_unique<desim::Mailbox<Packet>>(*sim_));
    }

    // Observability: resolve handles once; transfer() never looks a
    // metric up by name.
    if (obs::MetricsRegistry *reg = obs::metrics()) {
        msgCtr_ = reg->counter("mesh.messages");
        flitCtr_ = reg->counter("mesh.flits");
        stallCtr_ = reg->counter("mesh.stalls");
        latencyHist_ = reg->histogram("mesh.latency_us");
        contentionHist_ = reg->histogram("mesh.contention_us");
        hopHist_ = reg->histogram("mesh.hop_latency_us");
        queueHist_ = reg->histogram("mesh.queue_us");
        stallTimeHist_ = reg->histogram("mesh.stall_us");
        transitHist_ = reg->histogram("mesh.transit_us");
        // Registered only under a fault plan so a fault-free metrics
        // snapshot stays byte-identical to pre-fault-layer builds.
        if (faults_) {
            rerouteCtr_ = reg->counter("mesh.rerouted_packets");
            rerouteHopsCtr_ = reg->counter("mesh.reroute_extra_hops");
        }
    }
    tracer_ = obs::tracer();
    flows_ = obs::flows();
    activity_ = obs::rankActivity();
    linkStats_ = obs::linkStats();
    if (linkStats_) {
        // Declare the link universe up front, channel lanes first in
        // the exact flat order the utilization statistics iterate, so
        // the sink's channel aggregates replicate them bit for bit.
        linkStats_->declareRouters(n);
        laneLink_.resize(lanes_.size());
        for (std::size_t li = 0; li < lanes_.size(); ++li) {
            int node = static_cast<int>(li / 4);
            int dir = static_cast<int>(li % 4);
            for (std::size_t vc = 0; vc < lanes_[li].size(); ++vc) {
                laneLink_[li].push_back(linkStats_->declareLink(
                    node, dir, static_cast<int>(vc)));
            }
        }
        injLink_.reserve(static_cast<std::size_t>(n));
        for (int node = 0; node < n; ++node) {
            injLink_.push_back(
                linkStats_->declareLink(node, obs::kLinkInject, 0));
        }
    }
    if (tracer_) {
        routerLane_.reserve(static_cast<std::size_t>(n));
        for (int node = 0; node < n; ++node)
            routerLane_.push_back(
                tracer_->lane("router:" + std::to_string(node)));
        msgName_ = tracer_->name("msg");
        holdName_ = tracer_->name("hold");
        stallName_ = tracer_->name("stall");
        drainName_ = tracer_->name("drain");
    }
}

int
MeshNetwork::hopCount(int src, int dst) const
{
    if (cfg_.topology == Topology::Torus) {
        return std::abs(torusDelta(nodeX(src), nodeX(dst), cfg_.width)) +
               std::abs(
                   torusDelta(nodeY(src), nodeY(dst), cfg_.height));
    }
    return std::abs(nodeX(src) - nodeX(dst)) +
           std::abs(nodeY(src) - nodeY(dst));
}

void
MeshNetwork::route(int src, int dst, RouteBuf &hops) const
{
    bool torus = cfg_.topology == Topology::Torus;
    int x = nodeX(src), y = nodeY(src);
    int dxTotal = torus ? torusDelta(x, nodeX(dst), cfg_.width)
                        : meshDelta(x, nodeX(dst));
    int dyTotal = torus ? torusDelta(y, nodeY(dst), cfg_.height)
                        : meshDelta(y, nodeY(dst));

    for (int step = 0; step < std::abs(dxTotal); ++step) {
        Hop hop;
        hop.from = nodeId(x, y);
        hop.isX = true;
        if (dxTotal > 0) {
            hop.dir = East;
            hop.wrap = (x == cfg_.width - 1);
            x = (x + 1) % cfg_.width;
        } else {
            hop.dir = West;
            hop.wrap = (x == 0);
            x = (x - 1 + cfg_.width) % cfg_.width;
        }
        hops.push_back(hop);
    }
    for (int step = 0; step < std::abs(dyTotal); ++step) {
        Hop hop;
        hop.from = nodeId(x, y);
        hop.isX = false;
        if (dyTotal > 0) {
            hop.dir = North;
            hop.wrap = (y == cfg_.height - 1);
            y = (y + 1) % cfg_.height;
        } else {
            hop.dir = South;
            hop.wrap = (y == 0);
            y = (y - 1 + cfg_.height) % cfg_.height;
        }
        hops.push_back(hop);
    }
}

bool
MeshNetwork::routeAvoiding(int src, int dst, double now,
                           RouteBuf &hops) const
{
    if (cfg_.topology == Topology::Torus) {
        // Dimension-ordered with a per-dimension ring-arc flip: when
        // the shortest arc crosses a down link, go the other way
        // around. The dateline VC discipline keeps either arc
        // deadlock-free (wrap hops switch to the upper VC class).
        auto emitRing = [&](bool isX, int from, int to, int extent,
                            int fixed) -> bool {
            int prim = torusDelta(from, to, extent);
            if (prim == 0)
                return true;
            int fwd = (to - from + extent) % extent;
            int alt = prim == fwd ? fwd - extent : fwd;
            for (int delta : {prim, alt}) {
                std::size_t mark = hops.size();
                int c = from;
                bool ok = true;
                for (int step = 0; step < std::abs(delta); ++step) {
                    Hop hop;
                    hop.from = isX ? nodeId(c, fixed) : nodeId(fixed, c);
                    hop.isX = isX;
                    if (delta > 0) {
                        hop.dir = isX ? East : North;
                        hop.wrap = (c == extent - 1);
                        c = (c + 1) % extent;
                    } else {
                        hop.dir = isX ? West : South;
                        hop.wrap = (c == 0);
                        c = (c - 1 + extent) % extent;
                    }
                    int next = isX ? nodeId(c, fixed) : nodeId(fixed, c);
                    if (faults_->linkDown(hop.from, next, now)) {
                        ok = false;
                        break;
                    }
                    hops.push_back(hop);
                }
                if (ok)
                    return true;
                while (hops.size() > mark)
                    hops.pop_back();
            }
            return false;
        };
        if (!emitRing(true, nodeX(src), nodeX(dst), cfg_.width,
                      nodeY(src)))
            return false;
        return emitRing(false, nodeY(src), nodeY(dst), cfg_.height,
                        nodeX(dst));
    }

    // Mesh: BFS over (node, west-still-allowed) states. The west-first
    // turn model forbids turning into West, so a path is legal iff all
    // its West hops come first; within that restriction the search is
    // fully adaptive (non-minimal detours included) and remains
    // deadlock-free with a single VC. Fixed expansion order keeps the
    // chosen detour deterministic.
    int n = cfg_.nodes();
    std::vector<std::int8_t> prevDir(static_cast<std::size_t>(n) * 2,
                                     -1);
    std::vector<int> prevState(static_cast<std::size_t>(n) * 2, -1);
    std::vector<int> frontier;
    frontier.reserve(static_cast<std::size_t>(n) * 2);
    int start = src * 2 + 1; // state = node * 2 + westAllowed
    prevDir[static_cast<std::size_t>(start)] = 4; // visited sentinel
    frontier.push_back(start);
    int goal = -1;
    for (std::size_t qi = 0; qi < frontier.size() && goal < 0; ++qi) {
        int state = frontier[qi];
        int node = state / 2;
        bool westAllowed = (state & 1) != 0;
        int x = nodeX(node), y = nodeY(node);
        for (int dir : {East, West, North, South}) {
            int nx = x, ny = y;
            switch (dir) {
            case East:
                if (x + 1 >= cfg_.width)
                    continue;
                nx = x + 1;
                break;
            case West:
                if (!westAllowed || x == 0)
                    continue;
                nx = x - 1;
                break;
            case North:
                if (y + 1 >= cfg_.height)
                    continue;
                ny = y + 1;
                break;
            default: // South
                if (y == 0)
                    continue;
                ny = y - 1;
                break;
            }
            int next = nodeId(nx, ny);
            if (faults_->linkDown(node, next, now))
                continue;
            int nextState = next * 2 + (dir == West ? 1 : 0);
            if (prevDir[static_cast<std::size_t>(nextState)] != -1)
                continue;
            prevDir[static_cast<std::size_t>(nextState)] =
                static_cast<std::int8_t>(dir);
            prevState[static_cast<std::size_t>(nextState)] = state;
            if (next == dst) {
                goal = nextState;
                break;
            }
            frontier.push_back(nextState);
        }
    }
    if (goal < 0)
        return false;

    // Walk the predecessor chain back to the source, then emit the
    // hops forward.
    desim::SmallVec<std::int8_t, 30> rev;
    for (int cur = goal; cur != start;
         cur = prevState[static_cast<std::size_t>(cur)])
        rev.push_back(prevDir[static_cast<std::size_t>(cur)]);
    int x = nodeX(src), y = nodeY(src);
    for (std::size_t i = rev.size(); i-- > 0;) {
        Hop hop;
        hop.from = nodeId(x, y);
        hop.dir = rev[i];
        hop.wrap = false;
        hop.isX = rev[i] == East || rev[i] == West;
        switch (rev[i]) {
        case East:
            ++x;
            break;
        case West:
            --x;
            break;
        case North:
            ++y;
            break;
        default: // South
            --y;
            break;
        }
        hops.push_back(hop);
    }
    return true;
}

int
MeshNetwork::neighborOf(const Hop &hop) const
{
    int x = nodeX(hop.from), y = nodeY(hop.from);
    switch (hop.dir) {
    case East:
        x = (x + 1) % cfg_.width;
        break;
    case West:
        x = (x - 1 + cfg_.width) % cfg_.width;
        break;
    case North:
        y = (y + 1) % cfg_.height;
        break;
    default: // South
        y = (y - 1 + cfg_.height) % cfg_.height;
        break;
    }
    return nodeId(x, y);
}

desim::Resource &
MeshNetwork::lane(const Hop &hop, bool crossed_dateline, int &vcOut)
{
    auto &vcs = lanes_[static_cast<std::size_t>(hop.from) * 4 +
                       static_cast<std::size_t>(hop.dir)];
    if (vcs.empty())
        throw std::logic_error("mesh: hop over a missing link");
    int v = cfg_.virtualChannels;
    int base = 0, span = v;
    if (cfg_.topology == Topology::Torus) {
        // Dateline scheme: lower class before crossing, upper after.
        span = v / 2;
        base = crossed_dateline ? span : 0;
        if (span == 0) {
            span = 1;
            base = 0;
        }
    }
    // Among the permitted class, take the least-loaded lane
    // (deterministic tie-break toward the lowest index).
    int bestIdx = base;
    desim::Resource *best = vcs[static_cast<std::size_t>(base)].get();
    for (int i = 1; i < span; ++i) {
        desim::Resource *cand =
            vcs[static_cast<std::size_t>(base + i)].get();
        std::size_t candLoad =
            cand->queueLength() + static_cast<std::size_t>(cand->inUse());
        std::size_t bestLoad =
            best->queueLength() + static_cast<std::size_t>(best->inUse());
        if (candLoad < bestLoad) {
            best = cand;
            bestIdx = base + i;
        }
    }
    vcOut = bestIdx;
    return *best;
}

int
MeshNetwork::flitsOf(int bytes) const
{
    return 1 + (bytes + cfg_.flitBytes - 1) / cfg_.flitBytes;
}

double
MeshNetwork::noLoadLatency(int hops, int bytes) const
{
    return static_cast<double>(hops) * cfg_.routerDelay +
           static_cast<double>(flitsOf(bytes)) * cfg_.flitTime;
}

desim::Task<trace::MessageRecord>
MeshNetwork::transfer(Packet pkt)
{
    if (pkt.src < 0 || pkt.src >= cfg_.nodes() || pkt.dst < 0 ||
        pkt.dst >= cfg_.nodes()) {
        throw std::invalid_argument("mesh: node id out of range");
    }
    if (pkt.src == pkt.dst)
        throw std::invalid_argument("mesh: self-transfer is not a "
                                    "network event");

    trace::MessageRecord rec;
    rec.src = pkt.src;
    rec.dst = pkt.dst;
    rec.bytes = pkt.bytes;
    rec.kind = pkt.kind;
    rec.injectTime = sim_->now();

    // Fault decisions are drawn at injection so the RNG stream position
    // stays a pure function of the (deterministic) injection sequence,
    // independent of in-network interleaving.
    bool faultDrop = false;
    if (faults_ && faults_->dropsConfigured())
        faultDrop = faults_->drawDrop(rec.injectTime);
    if (faults_ && faults_->corruptsConfigured() &&
        faults_->drawCorrupt(rec.injectTime)) {
        pkt.corrupted = true;
    }

    // A producer that knows the generation time opens the flow itself;
    // anything else (raw post()/transfer() callers) is generated here.
    if (flows_ && pkt.flow == 0) {
        pkt.flow = flows_->open(static_cast<int>(pkt.kind), pkt.src,
                                pkt.dst, pkt.bytes, rec.injectTime);
    }
    bool flowTraced =
        tracer_ && flows_ && pkt.flow != 0 && flows_->sampled(pkt.flow);

    RouteBuf hops;
    route(pkt.src, pkt.dst, hops);
    if (faults_ && cfg_.adaptiveRouting && faults_->linksConfigured()) {
        // Fault-aware adaptive routing: when the dimension-ordered
        // route crosses a link down right now, swap in a deadlock-free
        // detour. The per-hop check below still guards links that go
        // down while the worm is in flight.
        bool blocked = false;
        for (const Hop &hop : hops) {
            if (faults_->linkDown(hop.from, neighborOf(hop),
                                  rec.injectTime)) {
                blocked = true;
                break;
            }
        }
        if (blocked) {
            int minimal = static_cast<int>(hops.size());
            hops.clear();
            if (routeAvoiding(pkt.src, pkt.dst, rec.injectTime, hops)) {
                int extra = static_cast<int>(hops.size()) - minimal;
                faults_->noteReroute(extra);
                ++rerouted_;
                rerouteExtraHops_ +=
                    static_cast<std::uint64_t>(extra);
                rerouteCtr_.add(1);
                rerouteHopsCtr_.add(static_cast<std::uint64_t>(extra));
            } else {
                // No legal detour: fall through on the primary route
                // and let the down link tail-drop the worm as before.
                hops.clear();
                route(pkt.src, pkt.dst, hops);
            }
        }
    }
    rec.hops = static_cast<std::int32_t>(hops.size());
    double body =
        static_cast<double>(flitsOf(pkt.bytes)) * cfg_.flitTime;
    bool early = cfg_.holding == ChannelHolding::EarlyRelease;

    // The injection port serializes a node's own messages; it is the
    // first link of the worm.
    struct HeldLane
    {
        desim::Resource *res;
        int node;     ///< router whose outgoing lane this is
        SimTime since; ///< acquisition time (channel-hold span start)
        int link;     ///< link-stats id (-1 when the sink is absent)
    };
    // A worm holds at most its whole path plus the injection port, so
    // the held stack fits inline alongside the route buffer.
    desim::SmallVec<HeldLane, 31> held;
    int curLink = -1;
    if (linkStats_) {
        curLink = injLink_[static_cast<std::size_t>(pkt.src)];
        linkStats_->onOffered(pkt.bytes, rec.injectTime);
        linkStats_->onRequest(curLink, rec.injectTime);
    }
    co_await injection_[static_cast<std::size_t>(pkt.src)]->acquire();
    // Queueing delay: time spent waiting behind the node's own earlier
    // messages for the injection port.
    double queueWait = sim_->now() - rec.injectTime;
    double stallSum = 0.0;
    if (linkStats_)
        linkStats_->onAcquire(curLink, sim_->now(), queueWait, pkt.bytes);
    held.push_back(
        HeldLane{injection_[static_cast<std::size_t>(pkt.src)].get(),
                 pkt.src, sim_->now(), curLink});
    if (flowTraced) {
        tracer_->flowStart(routerLane_[static_cast<std::size_t>(pkt.src)],
                           msgName_, rec.injectTime, pkt.flow);
    }

    bool crossedX = false, crossedY = false;
    for (const Hop &hop : hops) {
        if (hop.wrap) {
            // The dateline link itself already travels in the upper
            // VC class, breaking the ring dependency cycle.
            (hop.isX ? crossedX : crossedY) = true;
        }
        if (faults_ &&
            faults_->linkDown(hop.from, neighborOf(hop), sim_->now())) {
            // Down link: the worm is tail-dropped at this router. Free
            // everything it holds so the network keeps flowing; the
            // message is neither delivered nor logged.
            for (const HeldLane &hl : held) {
                if (tracer_)
                    tracer_->span(
                        routerLane_[static_cast<std::size_t>(hl.node)],
                        holdName_, hl.since, sim_->now() - hl.since);
                if (linkStats_)
                    linkStats_->onRelease(hl.link, sim_->now());
                hl.res->release();
            }
            faults_->noteLinkDrop();
            rec.delivered = false;
            rec.deliverTime = sim_->now();
            co_return rec;
        }
        int vcIdx = 0;
        desim::Resource &ch =
            lane(hop, hop.isX ? crossedX : crossedY, vcIdx);
        SimTime hopStart = sim_->now();
        if (linkStats_) {
            curLink = laneLink_[static_cast<std::size_t>(hop.from) * 4 +
                                static_cast<std::size_t>(hop.dir)]
                               [static_cast<std::size_t>(vcIdx)];
            linkStats_->onRequest(curLink, hopStart);
        }
        co_await ch.acquire();
        SimTime waited = sim_->now() - hopStart;
        if (linkStats_)
            linkStats_->onAcquire(curLink, sim_->now(), waited,
                                  pkt.bytes);
        if (waited > 0.0) {
            stallCtr_.add(1);
            stallSum += waited;
            if (tracer_)
                tracer_->instant(
                    routerLane_[static_cast<std::size_t>(hop.from)],
                    stallName_, hopStart);
        }
        if (flowTraced) {
            tracer_->flowStep(
                routerLane_[static_cast<std::size_t>(hop.from)],
                holdName_, sim_->now(), pkt.flow);
        }
        if (early) {
            // The head advances off the previous link; its tail
            // clears that link one body-time later.
            HeldLane prev = held.back();
            held.pop_back();
            SimTime freeAt = sim_->now() + body;
            if (tracer_)
                tracer_->span(
                    routerLane_[static_cast<std::size_t>(prev.node)],
                    holdName_, prev.since, freeAt - prev.since);
            if (linkStats_)
                linkStats_->onRelease(prev.link, freeAt);
            sim_->schedule([res = prev.res] { res->release(); }, freeAt);
        }
        held.push_back(HeldLane{&ch, hop.from, sim_->now(), curLink});
        double headDelay = cfg_.routerDelay;
        if (faults_) {
            double stall = faults_->routerStallUs(hop.from, sim_->now());
            if (stall > 0.0) {
                faults_->noteRouterStall(stall);
                headDelay += stall;
            }
        }
        if (linkStats_)
            linkStats_->onForward(hop.from, pkt.bytes);
        co_await sim_->delay(headDelay);
        hopHist_.record(waited + headDelay);
    }

    // Head is at the destination; stream the body.
    SimTime headArrive = sim_->now();
    co_await sim_->delay(body);
    if (tracer_) {
        // Body-drain span on the destination router: the slice a flow
        // arrow terminates in (Perfetto binds flow ends to an
        // enclosing slice on the same track).
        tracer_->span(routerLane_[static_cast<std::size_t>(pkt.dst)],
                      drainName_, headArrive, sim_->now() - headArrive,
                      pkt.src, pkt.bytes);
        if (flowTraced)
            tracer_->flowEnd(
                routerLane_[static_cast<std::size_t>(pkt.dst)],
                drainName_, headArrive, pkt.flow);
    }
    for (const HeldLane &hl : held) {
        if (tracer_)
            tracer_->span(
                routerLane_[static_cast<std::size_t>(hl.node)],
                holdName_, hl.since, sim_->now() - hl.since);
        if (linkStats_)
            linkStats_->onRelease(hl.link, sim_->now());
        hl.res->release();
    }

    rec.deliverTime = sim_->now();

    if (faultDrop) {
        // Loss clause: the worm consumed network resources all the way
        // to the destination, then vanished — it never reaches the
        // receive queue, the log, or the characterization statistics.
        faults_->noteDrop();
        rec.delivered = false;
        co_return rec;
    }
    if (pkt.corrupted) {
        if (faults_)
            faults_->noteCorrupt();
        rec.corrupted = true;
    }

    rec.contention =
        rec.latency() - noLoadLatency(rec.hops, pkt.bytes);
    if (rec.contention < 1e-12)
        rec.contention = 0.0;

    latency_.record(rec.latency());
    contention_.record(rec.contention);
    ++messages_;
    payloadBytes_ += static_cast<std::uint64_t>(pkt.bytes);
    msgCtr_.add(1);
    flitCtr_.add(static_cast<std::uint64_t>(flitsOf(pkt.bytes)));
    latencyHist_.record(rec.latency());
    contentionHist_.record(rec.contention);
    // End-to-end decomposition: latency = queue + stall + transit.
    double transit = rec.latency() - queueWait - stallSum;
    if (transit < 0.0)
        transit = 0.0;
    queueHist_.record(queueWait);
    stallTimeHist_.record(stallSum);
    transitHist_.record(transit);
    if (flows_ && pkt.flow != 0) {
        flows_->onInject(pkt.flow, rec.injectTime);
        flows_->onDeliver(pkt.flow, rec.deliverTime, rec.hops, queueWait,
                          stallSum);
    }
    if (activity_) {
        // In-network span attributed to the source rank; overlapping
        // spans are merged by the rank-activity analyzer.
        activity_->noteComm(pkt.src, rec.injectTime, rec.deliverTime);
    }
    if (tracer_) {
        // Injection-to-delivery flight span on the source router lane.
        tracer_->span(routerLane_[static_cast<std::size_t>(pkt.src)],
                      msgName_, rec.injectTime, rec.latency(), pkt.dst,
                      pkt.bytes);
    }
    if (log_)
        log_->add(rec);
    if (linkStats_)
        linkStats_->onDelivered(pkt.bytes, rec.deliverTime);
    rx_[static_cast<std::size_t>(pkt.dst)]->send(std::move(pkt));
    co_return rec;
}

void
MeshNetwork::post(Packet pkt)
{
    auto fire = [](MeshNetwork *net, Packet p) -> desim::Task<void> {
        (void)co_await net->transfer(std::move(p));
    };
    sim_->spawn(fire(this, std::move(pkt)), "mesh-post");
}

double
MeshNetwork::averageChannelUtilization(SimTime t) const
{
    // One source of truth: with the link-stats sink installed, the
    // telemetry series and the network-weather report read the same
    // accumulators (the sink replicates the lane iteration order, so
    // the delegated value is bit-identical to the fallback loop).
    if (linkStats_)
        return linkStats_->avgChannelUtilization(t);
    double sum = 0.0;
    int n = 0;
    for (const auto &vcs : lanes_) {
        for (const auto &res : vcs) {
            sum += res->utilization(t);
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
MeshNetwork::maxChannelUtilization(SimTime t) const
{
    if (linkStats_)
        return linkStats_->maxChannelUtilization(t);
    double best = 0.0;
    for (const auto &vcs : lanes_) {
        for (const auto &res : vcs)
            best = std::max(best, res->utilization(t));
    }
    return best;
}

int
MeshNetwork::busyLanes() const
{
    int n = 0;
    for (const auto &vcs : lanes_) {
        for (const auto &res : vcs)
            n += res->inUse() > 0 ? 1 : 0;
    }
    return n;
}

std::size_t
MeshNetwork::queuedAcquires() const
{
    std::size_t n = 0;
    for (const auto &vcs : lanes_) {
        for (const auto &res : vcs)
            n += res->queueLength();
    }
    for (const auto &inj : injection_)
        n += inj->queueLength();
    return n;
}

} // namespace cchar::mesh
