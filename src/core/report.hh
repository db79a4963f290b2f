/**
 * @file
 * The communication characterization data model — the paper's output:
 * for one application run, the temporal attribute (inter-arrival time
 * distribution per source and aggregate), the spatial attribute
 * (destination distribution per source, classified against standard
 * patterns), and the volume attribute (message count and length
 * distribution), plus a summary of the observed network behaviour.
 */

#ifndef CCHAR_CORE_REPORT_HH
#define CCHAR_CORE_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "mesh/mesh.hh"
#include "obs/link_stats.hh"
#include "obs/rank_activity.hh"
#include "patterns.hh"
#include "stats/stats.hh"
#include "trace/record.hh"

namespace cchar::core {

/** Temporal attribute of one source (or the aggregate). */
struct TemporalFit
{
    int source = -1; ///< -1 = aggregate over all sources
    stats::SummaryStats stats;
    stats::FitResult fit;
};

/** Spatial attribute of one source. */
struct SpatialFit
{
    int source = 0;
    stats::DiscretePmf observed;
    stats::SpatialClassification classification;
};

/** Volume attribute of the run. */
struct VolumeCharacterization
{
    std::size_t messageCount = 0;
    double totalBytes = 0.0;
    stats::SummaryStats lengthStats;
    /** Distinct message sizes and their probability. */
    std::vector<std::pair<int, double>> lengthPmf;
    /** Messages injected per source. */
    std::vector<double> perSourceCounts;
};

/**
 * Characterization of one automatically detected execution phase.
 *
 * The paper observes that parallel applications alternate between
 * distinct communication regimes (local compute vs transpose in the
 * FFTs, red/black sweeps in SOR). The phase analyzer segments the run
 * with a change-point detector over windowed signals and re-runs the
 * temporal/spatial/volume characterization inside each segment.
 */
struct PhaseCharacterization
{
    int index = 0;
    /** Phase time span (us). */
    double tBegin = 0.0;
    double tEnd = 0.0;
    std::size_t messageCount = 0;
    double totalBytes = 0.0;
    /** Messages injected per microsecond inside the phase. */
    double injectionRate = 0.0;
    double meanBytes = 0.0;
    /** Normalized destination entropy (1 = uniform spread). */
    double dstEntropy = 0.0;
    /** Aggregate arrival-process fit inside the phase. */
    TemporalFit temporal;
    /** Source-averaged destination classification inside the phase. */
    stats::SpatialClassification spatial;
};

/** Observed network behaviour of the run. */
struct NetworkSummary
{
    double latencyMean = 0.0;
    double latencyMax = 0.0;
    double contentionMean = 0.0;
    double makespan = 0.0;
    double avgChannelUtilization = 0.0;
    double maxChannelUtilization = 0.0;
    double avgHops = 0.0;
};

/**
 * Fault-injection and recovery accounting of one run. Only rendered
 * (text, JSON, HTML) when enabled — fault-free reports are unchanged.
 */
struct ResilienceSummary
{
    /** True when the run executed under a fault plan. */
    bool enabled = false;
    /** Human-readable plan summary (FaultPlan::describe()). */
    std::string planDescription;
    /** Clauses in the plan. */
    std::size_t faultsPlanned = 0;
    std::uint64_t droppedPackets = 0;
    std::uint64_t corruptedPackets = 0;
    std::uint64_t linkDrops = 0;
    std::uint64_t routerStalls = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t deliveryFailures = 0;
    /** Malformed trace records skipped by a lenient ingest. */
    std::uint64_t traceRecordsSkipped = 0;
    /** Sum of bounded link-down windows in the plan (us). */
    double plannedLinkDowntimeUs = 0.0;
    /** Packets steered around a down link by adaptive routing. */
    std::uint64_t reroutedPackets = 0;
    /** Hops beyond the minimal path summed over all reroutes. */
    std::uint64_t rerouteExtraHops = 0;
    /** Per-rank retransmissions (sender-attributed; empty when the
     *  driver has no rank-level protocol, e.g. replay). */
    std::vector<std::uint64_t> rankRetransmits;
    /** Per-rank corrupt discards (receiver-attributed). */
    std::vector<std::uint64_t> rankCorruptDiscards;
};

/** One rank's activity totals and skew statistics. */
struct RankActivityRow
{
    int rank = 0;
    /** Time not inside any blocking primitive (us). */
    double computeUs = 0.0;
    double blockedSendUs = 0.0;
    double blockedRecvUs = 0.0;
    /** Merged in-network time of packets sourced by the rank (us). */
    double commUs = 0.0;
    /** Blocked (send + recv) time over the run duration. */
    double idleFraction = 0.0;
    /** Signed mean deviation from mean progress at markers (us). */
    double meanSkewUs = 0.0;
    double maxAbsSkewUs = 0.0;
    std::size_t blockedIntervals = 0;
    std::size_t markers = 0;
};

/**
 * One idle wave: a front of long blocked intervals starting on
 * consecutive neighboring ranks at strictly increasing times — the
 * propagating signature of a localized slowdown (arXiv 2205.13963).
 */
struct IdleWave
{
    /** Front arrival at the first / last rank of the chain (us). */
    double tBeginUs = 0.0;
    double tEndUs = 0.0;
    int rankBegin = 0;
    int rankEnd = 0;
    /** Ranks the front traversed (chain length). */
    int extent = 0;
    /** +1 = toward higher ranks, -1 = toward lower. */
    int direction = 1;
    double speedRanksPerUs = 0.0;
    /** Index of the detected phase containing tBegin, or -1. */
    int phase = -1;
};

/**
 * Per-rank activity, desynchronization and idle-wave analysis. Only
 * rendered (text, JSON, HTML) when enabled — reports without
 * --rank-activity are unchanged.
 */
struct RankActivitySummary
{
    /** True when the run was tracked with --rank-activity. */
    bool enabled = false;
    /** Analysis horizon: end of the tracked run (us). */
    double runEndUs = 0.0;
    /** Skew samples used (min marker count across ranks). */
    std::size_t markerSamples = 0;
    /** Fleet-wide worst |skew| over all markers and ranks (us). */
    double maxAbsSkewUs = 0.0;
    /** Facts lost to tracker capacity limits. */
    std::uint64_t droppedRecords = 0;
    std::vector<RankActivityRow> ranks;
    std::vector<IdleWave> waves;
    /**
     * Bounded per-rank render timeline: blocked intervals plus merged
     * comm spans, by begin time. Totals above are exact even when the
     * timeline is truncated (timelineDropped counts the cut spans).
     */
    std::vector<std::vector<obs::RankInterval>> timeline;
    std::size_t timelineDropped = 0;
    /** Idle fraction per rank per analysis window (ranks x windows). */
    std::vector<std::vector<double>> idleWindows;
    /** Width of one idle-fraction window (us). */
    double windowUs = 0.0;
};

/** Network weather of one directed link (ranked by utilization). */
struct LinkWeatherRow
{
    int node = 0;    ///< router whose outgoing lane this is
    int toNode = -1; ///< neighbor the link feeds (-1 = local inject)
    int dir = 0;     ///< 0..3 = E/W/N/S, obs::kLinkInject = injection
    int vc = 0;
    double utilization = 0.0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    /** Head-of-line blocking: acquires that waited, and for how long. */
    std::uint64_t stalls = 0;
    double stallUs = 0.0;
    /** Time-weighted mean queue depth (worms waiting for the lane). */
    double meanQueueDepth = 0.0;
    int peakBacklog = 0;
    /** Utilization >= hotspot threshold and sustained across windows. */
    bool hotspot = false;
    /** Fraction of run windows with busy fraction >= fleet median. */
    double sustainedFraction = 0.0;
    /** Busy fraction per analysis window (sparkline source). */
    std::vector<double> sparkline;
};

/** Forwarding totals of one router (ranked by forwards). */
struct RouterLoadRow
{
    int node = 0;
    std::uint64_t forwards = 0;
    std::uint64_t bytes = 0;
};

/**
 * Per-link utilization, hotspot and saturation analysis. Only
 * rendered (text, JSON, HTML) when enabled — reports without
 * --link-stats are unchanged.
 */
struct LinkWeatherSummary
{
    /** True when the run was tracked with --link-stats. */
    bool enabled = false;
    /** Analysis horizon: end of the tracked run (us). */
    double runEndUs = 0.0;
    /** Tracked channel lanes (idle ones included). */
    int totalLinks = 0;
    /** Tracked injection ports. */
    int injectionLinks = 0;
    /** Ranked links beyond the top-N bound (logged, not silent). */
    int elidedLinks = 0;
    /** Channel-lane utilization aggregates (injection excluded). */
    double avgUtilization = 0.0;
    double maxUtilization = 0.0;
    double medianUtilization = 0.0;
    /** Load-imbalance Gini coefficient across channel lanes. */
    double gini = 0.0;
    int hotspotCount = 0;
    std::uint64_t holStalls = 0;
    double holStallUs = 0.0;
    std::uint64_t offeredBytes = 0;
    std::uint64_t deliveredBytes = 0;
    /** Offered load (bytes/us) at the congestion knee; 0 = none. */
    double congestionOnsetLoad = 0.0;
    /** Start of the earliest congested window (us); < 0 = none. */
    double congestionOnsetUs = -1.0;
    /** Detected phase containing the onset, or -1. */
    int congestionPhase = -1;
    /** Width of one analysis window (us). */
    double windowUs = 0.0;
    /** Facts lost to tracker capacity limits. */
    std::uint64_t droppedFacts = 0;
    /** Top-N links by utilization (see elidedLinks). */
    std::vector<LinkWeatherRow> links;
    /** Top-N routers by forwards. */
    std::vector<RouterLoadRow> routers;
    /**
     * Utilization per direction per node (4 x nodes; max over VCs,
     * -1 where the topology has no such link) — HTML heatmap source.
     */
    std::vector<std::vector<double>> dirUtil;
    /** Offered / delivered throughput per window (bytes/us). */
    std::vector<double> offeredSeries;
    std::vector<double> deliveredSeries;
};

/**
 * Per-attribute divergence of a synthetic replay against the model it
 * was generated from — the closed loop of the methodology: the
 * re-characterized synthetic run is compared attribute by attribute
 * (temporal / spatial / volume) with the distributions that drove it.
 * Only rendered (text, JSON, HTML) when enabled — reports produced by
 * `characterize` are unchanged.
 */
struct SynthesisFidelity
{
    /** True when the report describes a `cchar synth` replay. */
    bool enabled = false;
    /** Model provenance: file path, or "report" for --synthetic. */
    std::string modelSource;
    /** Application named by the originating characterization. */
    std::string modelApplication;
    /** Proc count of the originating characterization. */
    int modelProcs = 0;
    /** Topology tiles replicated by --scale-procs (1 = unscaled). */
    int scaleTiles = 1;
    /** Message-budget multiplier applied to the model counts. */
    double messageScale = 1.0;
    /** Generator seed of the replay. */
    std::uint64_t seed = 0;
    /** Synthetic messages delivered through the mesh. */
    std::size_t syntheticMessages = 0;
    /**
     * Temporal attribute: message-count-weighted mean KS distance of
     * each source's observed inter-arrival sample against the
     * distribution that generated it.
     */
    double temporalKs = 1.0;
    /** Sources that contributed a temporal KS term. */
    std::size_t temporalSources = 0;
    /**
     * Spatial attribute: sup CDF distance (destination-index order)
     * between the model's expected aggregate destination PMF and the
     * observed synthetic one.
     */
    double spatialKs = 1.0;
    /**
     * Volume attribute: sup CDF distance (byte-size order) between
     * the model length PMF and the observed synthetic one.
     */
    double volumeKs = 1.0;

    /** Worst attribute divergence — the number the golden suite gates. */
    double
    maxKs() const
    {
        double m = temporalKs;
        if (spatialKs > m)
            m = spatialKs;
        if (volumeKs > m)
            m = volumeKs;
        return m;
    }
};

/**
 * The report's own fitted model, replayed fault-free and compared with
 * the run it was fitted to (`--synthetic`; rendered only when enabled).
 */
struct ModelValidation
{
    bool enabled = false;
    /** Network behaviour of the model replay (avgHops left 0). */
    NetworkSummary network;
    /** (replay - original) / original mean latency; 0 if original is 0. */
    double latencyError = 0.0;
    /** Per-attribute KS divergence of the replay from the model. */
    SynthesisFidelity fidelity;
};

/** Acquisition strategy used for the run. */
enum class Strategy
{
    Dynamic, ///< execution-driven CC-NUMA (SPASM substitute)
    Static,  ///< trace from the MP runtime replayed into the mesh
};

std::string toString(Strategy strategy);

/** Full characterization of one application run. */
struct CharacterizationReport
{
    std::string application;
    Strategy strategy = Strategy::Dynamic;
    int nprocs = 0;
    mesh::MeshConfig mesh;
    /** Result of the application's self-verification. */
    bool verified = false;

    TemporalFit temporalAggregate;
    std::vector<TemporalFit> temporalPerSource;
    std::vector<SpatialFit> spatialPerSource;
    /** Attribute breakdown per message class (control/data/sync). */
    struct KindBreakdown
    {
        trace::MessageKind kind;
        VolumeCharacterization volume;
        TemporalFit temporal;
    };
    std::vector<KindBreakdown> perKind;
    /** Structured global pattern explanation (ring/butterfly/...). */
    StructuredPatternMatch structured;
    /** Destination distribution aggregated over sources. */
    stats::SpatialClassification spatialAggregate;
    /** Fraction of traffic at each hop distance (index = hops). */
    std::vector<double> hopDistancePmf;
    VolumeCharacterization volume;
    NetworkSummary network;
    /** Detected execution phases (empty if detection was disabled). */
    std::vector<PhaseCharacterization> phases;
    /** Fault activity and recovery (rendered only when enabled). */
    ResilienceSummary resilience;
    /** Per-rank activity and desync (rendered only when enabled). */
    RankActivitySummary rankActivity;
    /** Per-link network weather (rendered only when enabled). */
    LinkWeatherSummary linkStats;
    /** Model-replay divergence (rendered only for `synth` runs). */
    SynthesisFidelity synthFidelity;
    /** Replay of this report's model (rendered only when enabled). */
    ModelValidation synthetic;

    /** Paper-style multi-section text rendering. */
    void print(std::ostream &os) const;

    /** One summary row: app, msgs, rate, fit, pattern. */
    std::string summaryRow() const;

    /** Machine-readable JSON rendering (all attributes and fits). */
    void writeJson(std::ostream &os) const;
};

} // namespace cchar::core

#endif // CCHAR_CORE_REPORT_HH
