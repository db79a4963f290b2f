/**
 * @file
 * The simulated CC-NUMA machine (SPASM substitute, dynamic strategy).
 *
 * A Machine couples one processor per mesh node with a private cache,
 * a full-map directory slice, and a local memory slice. Application
 * code runs as one coroutine per processor against the ProcContext
 * API: shared reads/writes block until globally performed (sequential
 * consistency), local computation is charged with compute(). Every
 * coherence and synchronization message travels through the 2-D mesh
 * wormhole simulator and lands in the shared TrafficLog — the exact
 * feedback loop ("the applications are executed on an execution-driven
 * simulator... communication events are fed to a 2-D mesh network
 * simulator") of the paper's dynamic strategy.
 */

#ifndef CCHAR_CCNUMA_MACHINE_HH
#define CCHAR_CCNUMA_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "desim/desim.hh"
#include "mesh/mesh.hh"
#include "node.hh"
#include "protocol.hh"
#include "trace/record.hh"

namespace cchar::ccnuma {

/** Processor limit of the full-map directory's sharer bitmap. */
constexpr int kMaxProcessors = 64;

/** Home-node placement policy of a shared region. */
enum class Placement
{
    /** Consecutive lines rotate around the nodes. */
    Interleaved,
    /** The region is split into nprocs equal chunks, chunk i at node i. */
    Blocked,
};

/** Machine parameters (SPASM-era CC-NUMA defaults; times in us). */
struct MachineConfig
{
    mesh::MeshConfig mesh{};
    CacheConfig cache{};
    /** Cache access time charged on every load/store. */
    double cacheHitTime = 0.01;
    /** Directory lookup time at the home node. */
    double dirLookupTime = 0.02;
    /** Local memory (DRAM) access time at the home node. */
    double memoryLatency = 0.15;
    /** Lock/barrier controller processing time. */
    double syncProcessTime = 0.02;
    /** Size of a dataless protocol message. */
    int controlBytes = 8;

    int nprocs() const { return mesh.nodes(); }
    int dataBytes() const { return controlBytes + cache.lineBytes; }
};

/**
 * The CC-NUMA machine: nodes, network, shared address space, and the
 * registry of application processes.
 */
class Machine
{
  public:
    /** @param faults  Fault oracle of the network (see MeshNetwork). */
    Machine(desim::Simulator &sim, const MachineConfig &cfg,
            fault::FaultInjector *faults = nullptr);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Tears down every simulator process before the nodes and network
     * are destroyed: suspended application frames hold RAII releases
     * onto node resources, and must not outlive them (abnormal exits —
     * deadlock, watchdog trip — leave such frames behind).
     */
    ~Machine();

    const MachineConfig &config() const { return cfg_; }
    int nprocs() const { return cfg_.nprocs(); }
    desim::Simulator &sim() { return *sim_; }
    mesh::MeshNetwork &network() { return *net_; }
    trace::TrafficLog &log() { return log_; }
    NodeController &node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }

    /**
     * Allocate a line-aligned shared region.
     * @return base address of the region.
     */
    Addr allocShared(std::size_t bytes,
                     Placement placement = Placement::Interleaved);

    /** Allocate a region entirely homed at one node. */
    Addr allocSharedAt(std::size_t bytes, int node);

    /** Home node of an address. */
    int homeOf(Addr a) const;

    /** Line-align an address. */
    Addr
    lineOf(Addr a) const
    {
        return a & ~static_cast<Addr>(cfg_.cache.lineBytes - 1);
    }

    /** Register an application process bound to processor `proc`. */
    void spawnProcess(int proc, desim::Task<void> body,
                      const std::string &name = {});

    /**
     * Run the simulation to completion.
     * @throws std::runtime_error naming stuck processes if the
     *         application deadlocks (calendar drained early).
     */
    void run();

  private:
    struct Region
    {
        Addr base;
        std::size_t bytes;
        Placement placement;
        std::size_t blockBytes; ///< per-node chunk (Blocked only)
        int fixedNode = -1;     ///< home of the whole region, if >= 0
    };

    desim::Simulator *sim_;
    MachineConfig cfg_;
    trace::TrafficLog log_;
    std::unique_ptr<mesh::MeshNetwork> net_;
    std::vector<std::unique_ptr<NodeController>> nodes_;
    std::vector<Region> regions_;
    std::vector<desim::ProcessRef> appProcesses_;
    Addr nextBase_ = 0;
};

/**
 * Per-processor view handed to application code: the SPASM "trapped
 * instruction" interface.
 */
class ProcContext
{
  public:
    ProcContext(Machine &machine, int proc)
        : machine_(&machine), proc_(proc)
    {}

    int self() const { return proc_; }
    int nprocs() const { return machine_->nprocs(); }
    Machine &machine() { return *machine_; }

    /** Shared-memory load (blocks until performed). */
    desim::Task<std::uint64_t>
    read(Addr a)
    {
        return machine_->node(proc_).load(a);
    }

    /** Shared-memory store (blocks until performed). */
    desim::Task<void>
    write(Addr a, std::uint64_t value = 0)
    {
        return machine_->node(proc_).store(a, value);
    }

    /** Local computation for `us` microseconds. */
    desim::Task<void>
    compute(double us)
    {
        return delayTask(machine_->sim(), us);
    }

    desim::Task<void>
    lock(int lock_id)
    {
        return machine_->node(proc_).lock(lock_id);
    }

    desim::Task<void>
    unlock(int lock_id)
    {
        return machine_->node(proc_).unlock(lock_id);
    }

    desim::Task<void>
    barrier(int barrier_id = 0, int participants = 0)
    {
        return machine_->node(proc_).barrier(barrier_id, participants);
    }

  private:
    static desim::Task<void>
    delayTask(desim::Simulator &sim, double us)
    {
        co_await sim.delay(us);
    }

    Machine *machine_;
    int proc_;
};

/**
 * A shared array: native storage for real computation plus a shared
 * address range driving the timing model, mirroring SPASM's
 * execute-natively / simulate-memory-events split.
 */
template <typename T>
class SharedArray
{
  public:
    SharedArray(Machine &machine, std::size_t count,
                Placement placement = Placement::Interleaved)
        : machine_(&machine), data_(count),
          base_(machine.allocShared(count * sizeof(T), placement))
    {}

    /** Array homed entirely at `fixed_node`. */
    SharedArray(Machine &machine, std::size_t count, int fixed_node)
        : machine_(&machine), data_(count),
          base_(machine.allocSharedAt(count * sizeof(T), fixed_node))
    {}

    std::size_t size() const { return data_.size(); }

    /** Untimed native access (initialization / verification). */
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /** Simulated address of element i. */
    Addr
    addrOf(std::size_t i) const
    {
        return base_ + static_cast<Addr>(i * sizeof(T));
    }

    /** Timed read of element i. */
    desim::Task<T>
    get(ProcContext &ctx, std::size_t i)
    {
        (void)co_await ctx.read(addrOf(i));
        co_return data_[i];
    }

    /** Timed write of element i. */
    desim::Task<void>
    put(ProcContext &ctx, std::size_t i, T v)
    {
        data_[i] = v;
        co_await ctx.write(addrOf(i));
    }

  private:
    Machine *machine_;
    std::vector<T> data_;
    Addr base_;
};

} // namespace cchar::ccnuma

#endif // CCHAR_CCNUMA_MACHINE_HH
