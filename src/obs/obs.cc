#include "obs.hh"

namespace cchar::obs {

namespace {

// Thread-local, not process-global: every simulation is still
// single-threaded, but the sweep engine runs many simulations on
// concurrent worker threads, each installing its own sinks. A worker's
// install can never leak into a sibling's hot path.
thread_local Sinks g_sinks;

} // namespace

MetricsRegistry *
metrics()
{
    return g_sinks.metrics;
}

Tracer *
tracer()
{
    return g_sinks.tracer;
}

FlowTracker *
flows()
{
    return g_sinks.flows;
}

RankActivityTracker *
rankActivity()
{
    return g_sinks.rankActivity;
}

LinkStatsTracker *
linkStats()
{
    return g_sinks.linkStats;
}

ScopedObservability::ScopedObservability(MetricsRegistry *registry,
                                         Tracer *trace, FlowTracker *flow,
                                         RankActivityTracker *activity,
                                         LinkStatsTracker *links)
    : prev_(g_sinks)
{
    g_sinks = {registry, trace, flow, activity, links};
}

ScopedObservability::~ScopedObservability()
{
    g_sinks = prev_;
}

void
publishSinkStats(MetricsRegistry &registry, const Tracer *tracer,
                 const FlowTracker *flows)
{
    if (tracer) {
        registry.gauge("obs.tracer.records")
            .set(static_cast<double>(tracer->size()));
        registry.gauge("obs.tracer.dropped")
            .set(static_cast<double>(tracer->dropped()));
    }
    if (flows) {
        registry.gauge("obs.flows.opened")
            .set(static_cast<double>(flows->opened()));
        registry.gauge("obs.flows.completed")
            .set(static_cast<double>(flows->completed()));
        registry.gauge("obs.flows.dropped")
            .set(static_cast<double>(flows->droppedRecords()));
    }
}

} // namespace cchar::obs
