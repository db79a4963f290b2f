#include "machine.hh"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/status.hh"

namespace cchar::ccnuma {

Machine::Machine(desim::Simulator &sim, const MachineConfig &cfg,
                 fault::FaultInjector *faults)
    : sim_(&sim), cfg_(cfg), log_(cfg.nprocs())
{
    if (cfg_.nprocs() > kMaxProcessors)
        throw std::invalid_argument(
            "ccnuma: at most " + std::to_string(kMaxProcessors) +
            " processors (full-map bitmap)");
    if (cfg_.cache.lineBytes <= 0 ||
        (cfg_.cache.lineBytes & (cfg_.cache.lineBytes - 1)) != 0) {
        throw std::invalid_argument("ccnuma: line size must be a power "
                                    "of two");
    }
    net_ = std::make_unique<mesh::MeshNetwork>(*sim_, cfg_.mesh, &log_,
                                               faults);
    nodes_.reserve(static_cast<std::size_t>(cfg_.nprocs()));
    for (int i = 0; i < cfg_.nprocs(); ++i) {
        nodes_.push_back(std::make_unique<NodeController>(*this, i));
        nodes_.back()->start();
    }
}

Machine::~Machine()
{
    sim_->destroyProcesses();
}

Addr
Machine::allocShared(std::size_t bytes, Placement placement)
{
    if (bytes == 0)
        throw std::invalid_argument("ccnuma: zero-sized allocation");
    auto lineBytes = static_cast<std::size_t>(cfg_.cache.lineBytes);
    std::size_t rounded = (bytes + lineBytes - 1) / lineBytes * lineBytes;

    Region region;
    region.base = nextBase_;
    region.bytes = rounded;
    region.placement = placement;
    if (placement == Placement::Blocked) {
        std::size_t lines = rounded / lineBytes;
        std::size_t linesPerNode =
            (lines + static_cast<std::size_t>(cfg_.nprocs()) - 1) /
            static_cast<std::size_t>(cfg_.nprocs());
        region.blockBytes = linesPerNode * lineBytes;
    } else {
        region.blockBytes = 0;
    }
    regions_.push_back(region);
    nextBase_ += rounded;
    return region.base;
}

Addr
Machine::allocSharedAt(std::size_t bytes, int node)
{
    if (node < 0 || node >= cfg_.nprocs())
        throw std::invalid_argument("ccnuma: fixed home out of range");
    Addr base = allocShared(bytes, Placement::Interleaved);
    regions_.back().fixedNode = node;
    return base;
}

int
Machine::homeOf(Addr a) const
{
    for (const Region &r : regions_) {
        if (a >= r.base && a < r.base + r.bytes) {
            if (r.fixedNode >= 0)
                return r.fixedNode;
            Addr off = a - r.base;
            if (r.placement == Placement::Blocked) {
                auto node = static_cast<int>(off / r.blockBytes);
                return node < cfg_.nprocs() ? node : cfg_.nprocs() - 1;
            }
            auto line =
                off / static_cast<Addr>(cfg_.cache.lineBytes);
            return static_cast<int>(
                line % static_cast<Addr>(cfg_.nprocs()));
        }
    }
    throw std::out_of_range("ccnuma: address outside any shared region");
}

void
Machine::spawnProcess(int proc, desim::Task<void> body,
                      const std::string &name)
{
    std::string label = name;
    if (label.empty())
        label = "proc-" + std::to_string(proc);
    appProcesses_.push_back(sim_->spawn(std::move(body), label));
    (void)proc;
}

void
Machine::run()
{
    sim_->run();
    std::ostringstream stuck;
    bool any = false;
    for (const auto &ref : appProcesses_) {
        if (!ref.done()) {
            stuck << (any ? ", " : "") << ref.name();
            any = true;
        }
    }
    if (any) {
        std::ostringstream os;
        os << "ccnuma: application deadlock; stuck processes: "
           << stuck.str() << "\n  at t=" << std::fixed
           << std::setprecision(2) << sim_->now()
           << " us; network: " << net_->busyLanes() << " lanes busy, "
           << net_->queuedAcquires() << " queued acquires; "
           << log_.size() << " messages delivered";
        core::reportDiagnostic(core::DiagSeverity::Error, os.str());
        throw core::CCharError(core::StatusCode::SimError, os.str());
    }
}

} // namespace cchar::ccnuma
