/**
 * @file
 * The standard machines of the benchmark harness (see DESIGN.md
 * section 4): the shared-memory suite runs on a 16-processor 4x4-mesh
 * CC-NUMA machine (dynamic strategy), the NAS message-passing suite on
 * 8 ranks replayed into a 4x2 mesh (static strategy).
 */

#ifndef CCHAR_BENCH_COMMON_HH
#define CCHAR_BENCH_COMMON_HH

#include "apps/registry.hh"
#include "core/core.hh"
#include "self_report.hh"

namespace cchar::bench {

inline ccnuma::MachineConfig
standardMachine()
{
    ccnuma::MachineConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 4;
    return cfg;
}

inline mp::MpConfig
standardWorld()
{
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 2;
    return cfg;
}

} // namespace cchar::bench

#endif // CCHAR_BENCH_COMMON_HH
