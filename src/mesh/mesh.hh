/**
 * @file
 * 2-D mesh / torus wormhole-routed interconnection network simulator.
 *
 * This reproduces the paper's common network substrate: both the
 * dynamic (CC-NUMA / SPASM) and the static (SP2 trace) strategies
 * inject their communication events into the same 2-D network model
 * and log every message's source, destination, length, injection
 * time, latency and contention.
 *
 * Model: dimension-ordered (XY) wormhole routing. Each unidirectional
 * physical channel carries one or more virtual channels (VCs), each a
 * FIFO facility. A message's head acquires a (channel, VC) lane at
 * every hop — holding acquired ones (wormhole blocking) — spends
 * routerDelay per hop, then the body streams for flits * flitTime.
 * Two channel-holding disciplines are provided:
 *
 *  - FullPipeline (default, matches the paper-era CSIM models): every
 *    lane of the path is held until the tail drains at the
 *    destination;
 *  - EarlyRelease (ablation): a lane is released one body-time after
 *    the head leaves it, approximating flit-level pipelining.
 *
 * Topologies:
 *  - Mesh: XY routing orders lane acquisition (all X hops before Y
 *    hops, monotone within a dimension), so the wait graph is acyclic
 *    and the network is deadlock-free with a single VC.
 *  - Torus: shortest-direction dimension-ordered routing with
 *    wraparound links. Rings deadlock with one VC, so the torus uses
 *    the Dally/Seitz dateline scheme: messages travel in the lower VC
 *    class and switch to the upper class at the wraparound (dateline)
 *    link of each dimension — requires virtualChannels >= 2.
 */

#ifndef CCHAR_MESH_MESH_HH
#define CCHAR_MESH_MESH_HH

#include <any>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "desim/desim.hh"
#include "desim/smallvec.hh"
#include "fault/injector.hh"
#include "trace/record.hh"

namespace cchar::mesh {

using desim::SimTime;

/** Channel-holding discipline (see file comment). */
enum class ChannelHolding
{
    FullPipeline,
    EarlyRelease,
};

/**
 * Most nodes of any network. Every size that enters is checked against
 * it in 64 bits, so MeshConfig::nodes() cannot overflow.
 */
constexpr int kMaxNodes = 1 << 20;

/** Network topology. */
enum class Topology
{
    Mesh,
    Torus,
};

/** Static configuration of the network. */
struct MeshConfig
{
    int width = 4;
    int height = 4;
    /** Flit width in bytes. */
    int flitBytes = 8;
    /** Per-hop header routing/switching delay (us). */
    double routerDelay = 0.04;
    /** Per-flit serialization time on a channel (us). */
    double flitTime = 0.01;
    /** Channel-holding discipline. */
    ChannelHolding holding = ChannelHolding::FullPipeline;
    /** Mesh or torus. */
    Topology topology = Topology::Mesh;
    /** Virtual channels per physical channel (torus needs >= 2). */
    int virtualChannels = 1;
    /**
     * Fault-aware adaptive routing: when the planned route crosses a
     * link that is down at injection time, fall back to a deadlock-free
     * alternate path (west-first turn model on the mesh, the longer
     * ring arc under the dateline VC discipline on the torus). Only
     * consulted when a fault plan with link clauses is installed, so
     * fault-free runs are byte-identical either way.
     */
    bool adaptiveRouting = true;

    int nodes() const { return width * height; }
};

/** A message delivered to a node's receive queue. */
struct Packet
{
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::int32_t bytes = 0;
    trace::MessageKind kind = trace::MessageKind::Data;
    /** Protocol-defined discriminator (coherence opcode, MPI tag...). */
    std::uint64_t tag = 0;
    /**
     * Observability flow id (0 = none). Assigned by the producer at
     * generation time when a FlowTracker is installed; carried through
     * the network untouched. Never influences simulation behaviour.
     */
    std::uint64_t flow = 0;
    /** Set in transit by fault injection; receivers should discard. */
    bool corrupted = false;
    /** Opaque protocol payload. */
    std::any payload{};
};

/** The mesh/torus network simulator. */
class MeshNetwork
{
  public:
    /**
     * @param sim  Simulation kernel the network lives on.
     * @param cfg  Topology and timing parameters.
     * @param log  Network activity log to append to (optional).
     * @param faults  Fault oracle consulted per packet and per hop
     *        (optional; must outlive the network). Without one the
     *        network is bit-identical to a build without faults.
     */
    MeshNetwork(desim::Simulator &sim, const MeshConfig &cfg,
                trace::TrafficLog *log = nullptr,
                fault::FaultInjector *faults = nullptr);

    MeshNetwork(const MeshNetwork &) = delete;
    MeshNetwork &operator=(const MeshNetwork &) = delete;

    /**
     * Destroys every simulator process before the lanes die: frames
     * suspended mid-transfer hold lane Resources, so an abnormal run
     * (watchdog trip, deadlock) must not leave them to be torn down
     * after the network.
     */
    ~MeshNetwork();

    const MeshConfig &config() const { return cfg_; }
    desim::Simulator &sim() { return *sim_; }

    int nodeX(int node) const { return node % cfg_.width; }
    int nodeY(int node) const { return node / cfg_.width; }
    int nodeId(int x, int y) const { return y * cfg_.width + x; }

    /** Routed hop count (Manhattan; wrap-aware on the torus). */
    int hopCount(int src, int dst) const;

    /**
     * Transmit a packet and block until its tail drains at the
     * destination. The packet is appended to the destination's
     * receive queue and the network log.
     *
     * Under fault injection the message may instead be dropped on a
     * down link or by a loss clause (record.delivered == false; the
     * message is neither delivered nor logged) or delivered corrupted
     * (record.corrupted == true; delivered and logged).
     *
     * @return the log record of this message.
     */
    desim::Task<trace::MessageRecord> transfer(Packet pkt);

    /** Fire-and-forget transmission (spawns a transfer process). */
    void post(Packet pkt);

    /** Receive queue of a node (packets in delivery order). */
    desim::Mailbox<Packet> &rxQueue(int node) { return *rx_[node]; }

    /** Minimal no-load latency of a bytes-sized message over h hops. */
    double noLoadLatency(int hops, int bytes) const;

    /** Number of flits (including the header flit) of a message. */
    int flitsOf(int bytes) const;

    // ---------------- statistics ----------------

    /** End-to-end latency across all completed transfers. */
    const desim::Tally &latencyStats() const { return latency_; }

    /** Contention (blocking) component across transfers. */
    const desim::Tally &contentionStats() const { return contention_; }

    /** Completed transfers. */
    std::uint64_t messageCount() const { return messages_; }

    /** Payload bytes across all completed transfers. */
    std::uint64_t payloadBytes() const { return payloadBytes_; }

    /** Packets steered around a down link by adaptive routing. */
    std::uint64_t reroutedPackets() const { return rerouted_; }

    /** Hops beyond the minimal path summed over all reroutes. */
    std::uint64_t rerouteExtraHops() const { return rerouteExtraHops_; }

    /** Mean utilization over all lanes at time t. */
    double averageChannelUtilization(SimTime t) const;

    /** Peak per-lane utilization at time t. */
    double maxChannelUtilization(SimTime t) const;

    /** Lanes (virtual channels) held by a worm right now. */
    int busyLanes() const;

    /** Worms currently queued on some lane or injection port. */
    std::size_t queuedAcquires() const;

  private:
    /** One hop of a routed path. */
    struct Hop
    {
        int from;
        int dir;     ///< Direction index (East/West/North/South)
        bool wrap;   ///< crosses the torus dateline
        bool isX;    ///< X-dimension hop
    };

    /**
     * Routed path buffer: inline slots cover every path on meshes up
     * to 16x16 (and most beyond); longer paths spill to the heap.
     */
    using RouteBuf = desim::SmallVec<Hop, 30>;

    /** Route from src to dst (dimension ordered, wrap-aware). */
    void route(int src, int dst, RouteBuf &hops) const;

    /**
     * Deadlock-free alternate route that avoids every link down at
     * time `now`: a west-first turn-model BFS on the mesh, a
     * ring-arc flip per dimension on the torus. Appends to @p hops
     * and returns true on success; false when no legal detour exists
     * (down *West* links are unavoidable under west-first, and a
     * torus ring with both arcs cut is partitioned).
     */
    bool routeAvoiding(int src, int dst, double now,
                       RouteBuf &hops) const;

    /** Node a hop lands on (wrap-aware). */
    int neighborOf(const Hop &hop) const;

    /**
     * Pick a virtual channel lane for a hop; @p vcOut reports the
     * chosen VC index (for link-stats attribution).
     */
    desim::Resource &lane(const Hop &hop, bool crossed_dateline,
                          int &vcOut);

    desim::Simulator *sim_;
    MeshConfig cfg_;
    trace::TrafficLog *log_;
    fault::FaultInjector *faults_ = nullptr;
    /** lanes_[node*4 + dir][vc]; empty vector when no such link. */
    std::vector<std::vector<std::unique_ptr<desim::Resource>>> lanes_;
    std::vector<std::unique_ptr<desim::Resource>> injection_;
    std::vector<std::unique_ptr<desim::Mailbox<Packet>>> rx_;
    desim::Tally latency_;
    desim::Tally contention_;
    std::uint64_t messages_ = 0;
    std::uint64_t payloadBytes_ = 0;
    std::uint64_t rerouted_ = 0;
    std::uint64_t rerouteExtraHops_ = 0;

    // Observability handles (detached when no sinks are installed).
    obs::Counter msgCtr_;
    obs::Counter flitCtr_;
    obs::Counter stallCtr_;
    obs::Histogram latencyHist_;
    obs::Histogram contentionHist_;
    obs::Histogram hopHist_;
    /** End-to-end latency decomposition (see DESIGN.md §6). */
    obs::Histogram queueHist_;
    obs::Histogram stallTimeHist_;
    obs::Histogram transitHist_;
    /** Degraded-routing mirrors, registered only in fault mode. */
    obs::Counter rerouteCtr_;
    obs::Counter rerouteHopsCtr_;
    obs::Tracer *tracer_ = nullptr;
    obs::FlowTracker *flows_ = nullptr;
    /** Per-rank activity sink: in-network spans by source rank. */
    obs::RankActivityTracker *activity_ = nullptr;
    /** Per-link weather sink (nullptr unless --link-stats). */
    obs::LinkStatsTracker *linkStats_ = nullptr;
    /** Link-stats id per lane, shaped like lanes_ (sink only). */
    std::vector<std::vector<int>> laneLink_;
    /** Link-stats id per injection port (sink only). */
    std::vector<int> injLink_;
    /** Tracer lane of each router (tracer_ != nullptr only). */
    std::vector<int> routerLane_;
    int msgName_ = 0;
    int holdName_ = 0;
    int stallName_ = 0;
    int drainName_ = 0;
};

} // namespace cchar::mesh

#endif // CCHAR_MESH_MESH_HH
