/**
 * @file
 * Umbrella header and process-wide hooks of the observability layer.
 *
 * The simulation layers (desim, mesh, ccnuma, mp, core) are
 * instrumented against two optional sinks:
 *
 *  - a MetricsRegistry (counters / gauges / histograms), and
 *  - a Tracer (sim-time spans and instants).
 *
 * Both default to "absent": metrics() and tracer() return nullptr, an
 * instrumented component resolves detached handles, and the only
 * residual cost on a hot path is a null-check. A driver (the cchar
 * CLI, a bench binary, a test) that wants visibility installs its own
 * sinks with a ScopedObservability *before* constructing the
 * simulator, runs, and exports.
 *
 * The hooks are deliberately ambient rather than threaded through
 * every constructor: simulations are single-threaded and short-lived,
 * every layer already owns a Simulator reference, and a global install
 * point means instrumenting a new subsystem never changes an API.
 * Components must read the hooks at construction time (cache handles),
 * never per event.
 *
 * The install point is *thread-local*: each thread has its own slot,
 * so concurrent sweep workers (see sweep/engine.hh) install fully
 * independent sinks with no synchronization on any hot path. A
 * single-threaded driver behaves exactly as before.
 */

#ifndef CCHAR_OBS_OBS_HH
#define CCHAR_OBS_OBS_HH

#include "flow.hh"
#include "link_stats.hh"
#include "phases.hh"
#include "rank_activity.hh"
#include "registry.hh"
#include "sampler.hh"
#include "tracer.hh"

namespace cchar::obs {

/** Currently installed metrics sink, or nullptr (disabled). */
MetricsRegistry *metrics();

/** Currently installed trace sink, or nullptr (disabled). */
Tracer *tracer();

/** Currently installed flow-tracking sink, or nullptr (disabled). */
FlowTracker *flows();

/** Currently installed rank-activity sink, or nullptr (disabled). */
RankActivityTracker *rankActivity();

/** Currently installed link-stats sink, or nullptr (disabled). */
LinkStatsTracker *linkStats();

/**
 * Publish the side sinks' own health into a registry snapshot:
 * obs.tracer.records / obs.tracer.dropped (ring overwrites — nonzero
 * means the exported trace is truncated) and obs.flows.opened /
 * completed / dropped. Call once, just before exporting the registry;
 * absent sinks contribute nothing.
 */
void publishSinkStats(MetricsRegistry &registry, const Tracer *tracer,
                      const FlowTracker *flows);

/** The five ambient sinks of one thread; a null member is disabled. */
struct Sinks
{
    MetricsRegistry *metrics = nullptr;
    Tracer *tracer = nullptr;
    FlowTracker *flows = nullptr;
    RankActivityTracker *rankActivity = nullptr;
    LinkStatsTracker *linkStats = nullptr;
};

/**
 * RAII installer: sets this thread's sinks for a scope, restores the
 * previous ones on exit. Keeps tests and benches exception-safe. The
 * only way to install a sink.
 */
class ScopedObservability
{
  public:
    explicit ScopedObservability(MetricsRegistry *registry,
                                 Tracer *trace = nullptr,
                                 FlowTracker *flow = nullptr,
                                 RankActivityTracker *activity = nullptr,
                                 LinkStatsTracker *links = nullptr);

    ScopedObservability(const ScopedObservability &) = delete;
    ScopedObservability &operator=(const ScopedObservability &) = delete;

    ~ScopedObservability();

  private:
    Sinks prev_;
};

} // namespace cchar::obs

#endif // CCHAR_OBS_OBS_HH
