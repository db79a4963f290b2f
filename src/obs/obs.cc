#include "obs.hh"

namespace cchar::obs {

namespace {

// Thread-local, not process-global: every simulation is still
// single-threaded, but the sweep engine runs many simulations on
// concurrent worker threads, each installing its own sinks. A worker's
// install can never leak into a sibling's hot path.
thread_local MetricsRegistry *g_metrics = nullptr;
thread_local Tracer *g_tracer = nullptr;
thread_local FlowTracker *g_flows = nullptr;
thread_local RankActivityTracker *g_rankActivity = nullptr;
thread_local LinkStatsTracker *g_linkStats = nullptr;

} // namespace

MetricsRegistry *
metrics()
{
    return g_metrics;
}

Tracer *
tracer()
{
    return g_tracer;
}

void
setMetrics(MetricsRegistry *registry)
{
    g_metrics = registry;
}

void
setTracer(Tracer *trace)
{
    g_tracer = trace;
}

FlowTracker *
flows()
{
    return g_flows;
}

void
setFlows(FlowTracker *tracker)
{
    g_flows = tracker;
}

RankActivityTracker *
rankActivity()
{
    return g_rankActivity;
}

void
setRankActivity(RankActivityTracker *tracker)
{
    g_rankActivity = tracker;
}

LinkStatsTracker *
linkStats()
{
    return g_linkStats;
}

void
setLinkStats(LinkStatsTracker *tracker)
{
    g_linkStats = tracker;
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
