#include "report.hh"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/json.hh"
#include "stats/distributions.hh"

namespace cchar::core {

std::string
toString(Strategy strategy)
{
    return strategy == Strategy::Dynamic ? "dynamic" : "static";
}

namespace {

using obs::writeJsonString;

void
printTemporal(std::ostream &os, const TemporalFit &fit)
{
    os << "    mean=" << std::setprecision(4) << fit.stats.mean
       << "us cv=" << fit.stats.cv << " n=" << fit.stats.count;
    if (fit.fit.dist) {
        os << "  fit=" << fit.fit.dist->describe()
           << "  R2=" << std::setprecision(4) << fit.fit.gof.r2
           << " KS=" << fit.fit.gof.ks;
    }
    os << "\n";
}

} // namespace

void
CharacterizationReport::print(std::ostream &os) const
{
    os << "=== Communication characterization: " << application
       << " (" << toString(strategy) << " strategy, " << nprocs
       << " processors, " << mesh.width << "x" << mesh.height
       << " mesh) ===\n";

    os << "-- Temporal attribute (message inter-arrival time) --\n";
    os << "  aggregate:\n";
    printTemporal(os, temporalAggregate);
    for (const auto &fit : temporalPerSource) {
        os << "  p" << fit.source << ":\n";
        printTemporal(os, fit);
    }

    os << "-- Spatial attribute (destination distribution) --\n";
    os << "  aggregate: " << spatialAggregate.describe()
       << " (tvd=" << std::setprecision(3) << spatialAggregate.modelTvd
       << ")\n";
    for (const auto &fit : spatialPerSource) {
        os << "  p" << fit.source << ": "
           << fit.classification.describe() << " (tvd="
           << std::setprecision(3) << fit.classification.modelTvd
           << ")\n";
    }
    os << "  hop-distance pmf:";
    for (std::size_t h = 0; h < hopDistancePmf.size(); ++h)
        os << " " << h << ":" << std::setprecision(3)
           << hopDistancePmf[h];
    os << "\n";

    os << "  structured pattern: " << structured.describe() << "\n";

    os << "-- Volume attribute (message count and length) --\n";
    os << "  messages=" << volume.messageCount
       << " totalBytes=" << std::setprecision(6) << volume.totalBytes
       << " meanLength=" << std::setprecision(4)
       << volume.lengthStats.mean << "B\n";
    os << "  length pmf:";
    for (const auto &[bytes, prob] : volume.lengthPmf)
        os << " " << bytes << "B:" << std::setprecision(3) << prob;
    os << "\n";
    for (const auto &kb : perKind) {
        os << "  class " << trace::toString(kb.kind) << ": msgs="
           << kb.volume.messageCount << " bytes="
           << std::setprecision(6) << kb.volume.totalBytes
           << " IAT mean=" << std::setprecision(4)
           << kb.temporal.stats.mean << "us cv="
           << kb.temporal.stats.cv;
        if (kb.temporal.fit.dist)
            os << " fit=" << kb.temporal.fit.dist->name();
        os << "\n";
    }

    if (!phases.empty()) {
        os << "-- Execution phases (change-point segmentation) --\n";
        for (const auto &ph : phases) {
            os << "  phase " << ph.index << ": ["
               << std::setprecision(6) << ph.tBegin << "us, "
               << ph.tEnd << "us) msgs=" << ph.messageCount
               << " rate=" << std::setprecision(4) << ph.injectionRate
               << "/us meanLength=" << ph.meanBytes
               << "B dstEntropy=" << std::setprecision(3)
               << ph.dstEntropy << "\n";
            os << "    IAT mean=" << std::setprecision(4)
               << ph.temporal.stats.mean << "us cv="
               << ph.temporal.stats.cv;
            if (ph.temporal.fit.dist)
                os << " fit=" << ph.temporal.fit.dist->name();
            os << "  spatial=" << ph.spatial.describe() << "\n";
        }
    }

    os << "-- Network behaviour --\n";
    os << "  latency mean=" << std::setprecision(4)
       << network.latencyMean << "us max=" << network.latencyMax
       << "us contention mean=" << network.contentionMean
       << "us avgHops=" << network.avgHops << "\n";
    os << "  makespan=" << network.makespan
       << "us channel-util avg=" << network.avgChannelUtilization
       << " max=" << network.maxChannelUtilization << "\n";

    if (synthFidelity.enabled) {
        const SynthesisFidelity &sf = synthFidelity;
        os << "-- Synthesis fidelity (model replay) --\n";
        os << "  model: " << sf.modelSource << " ("
           << sf.modelApplication << ", " << sf.modelProcs
           << " procs) seed=" << sf.seed << "\n";
        os << "  scale: tiles=" << sf.scaleTiles << " messageScale="
           << std::setprecision(4) << sf.messageScale
           << " syntheticMessages=" << sf.syntheticMessages << "\n";
        os << "  KS divergence: temporal=" << std::setprecision(4)
           << sf.temporalKs << " (" << sf.temporalSources
           << " sources) spatial=" << sf.spatialKs
           << " volume=" << sf.volumeKs
           << " max=" << sf.maxKs() << "\n";
    }

    if (resilience.enabled) {
        os << "-- Resilience (fault injection) --\n";
        os << "  plan: " << resilience.planDescription << "\n";
        os << "  lost: linkDrops=" << resilience.linkDrops
           << " drops=" << resilience.droppedPackets
           << " corrupted=" << resilience.corruptedPackets
           << " routerStalls=" << resilience.routerStalls << "\n";
        os << "  recovery: retransmits=" << resilience.retransmits
           << " deliveryFailures=" << resilience.deliveryFailures
           << " traceRecordsSkipped="
           << resilience.traceRecordsSkipped << "\n";
        if (!resilience.rankRetransmits.empty()) {
            os << "  per-rank (retransmits/corruptDiscards):";
            for (std::size_t r = 0;
                 r < resilience.rankRetransmits.size(); ++r) {
                std::uint64_t discards =
                    r < resilience.rankCorruptDiscards.size()
                        ? resilience.rankCorruptDiscards[r]
                        : 0;
                os << " p" << r << "="
                   << resilience.rankRetransmits[r] << "/" << discards;
            }
            os << "\n";
        }
        os << "  planned link downtime="
           << std::setprecision(6) << resilience.plannedLinkDowntimeUs
           << "us\n";
        os << "-- Degraded routing --\n";
        os << "  reroutedPackets=" << resilience.reroutedPackets
           << " rerouteExtraHops=" << resilience.rerouteExtraHops
           << "\n";
    }

    if (rankActivity.enabled) {
        const RankActivitySummary &ra = rankActivity;
        os << "-- Rank activity (desynchronization) --\n";
        os << "  runEnd=" << std::setprecision(6) << ra.runEndUs
           << "us skewSamples=" << ra.markerSamples
           << " maxAbsSkew=" << std::setprecision(4) << ra.maxAbsSkewUs
           << "us waves=" << ra.waves.size() << "\n";
        for (const auto &row : ra.ranks) {
            os << "  p" << row.rank << ": compute="
               << std::setprecision(6) << row.computeUs
               << "us blockedSend=" << row.blockedSendUs
               << "us blockedRecv=" << row.blockedRecvUs
               << "us comm=" << row.commUs << "us idle="
               << std::setprecision(3) << row.idleFraction
               << " skew mean=" << std::setprecision(4)
               << row.meanSkewUs << "us max=" << row.maxAbsSkewUs
               << "us\n";
        }
        for (std::size_t i = 0; i < ra.waves.size(); ++i) {
            const IdleWave &w = ra.waves[i];
            os << "  wave " << i << ": ranks " << w.rankBegin << "->"
               << w.rankEnd << " (extent " << w.extent << ", "
               << (w.direction > 0 ? "up" : "down") << ") over ["
               << std::setprecision(6) << w.tBeginUs << "us, "
               << w.tEndUs << "us] speed=" << std::setprecision(4)
               << w.speedRanksPerUs << " ranks/us";
            if (w.phase >= 0)
                os << " phase=" << w.phase;
            os << "\n";
        }
        if (ra.droppedRecords > 0) {
            os << "  warning: " << ra.droppedRecords
               << " activity records dropped (tracker capacity)\n";
        }
    }

    if (linkStats.enabled) {
        const LinkWeatherSummary &lw = linkStats;
        os << "-- Network weather (per-link utilization) --\n";
        os << "  runEnd=" << std::setprecision(6) << lw.runEndUs
           << "us channelLinks=" << lw.totalLinks << " (+"
           << lw.injectionLinks << " injection) util avg="
           << std::setprecision(4) << lw.avgUtilization
           << " max=" << lw.maxUtilization
           << " median=" << lw.medianUtilization
           << " gini=" << std::setprecision(3) << lw.gini << "\n";
        os << "  hotspots=" << lw.hotspotCount
           << " holStalls=" << lw.holStalls << " ("
           << std::setprecision(6) << lw.holStallUs
           << "us) offered=" << lw.offeredBytes << "B delivered="
           << lw.deliveredBytes << "B\n";
        if (lw.congestionOnsetLoad > 0.0) {
            os << "  congestion onset: load=" << std::setprecision(4)
               << lw.congestionOnsetLoad << "B/us at t="
               << std::setprecision(6) << lw.congestionOnsetUs << "us";
            if (lw.congestionPhase >= 0)
                os << " phase=" << lw.congestionPhase;
            os << "\n";
        } else {
            os << "  congestion onset: none detected\n";
        }
        for (std::size_t i = 0; i < lw.links.size(); ++i) {
            const LinkWeatherRow &row = lw.links[i];
            os << "  #" << i << " " << row.node << "->" << row.toNode
               << " " << obs::linkDirName(row.dir) << " v" << row.vc
               << ": util=" << std::setprecision(4) << row.utilization
               << " pkts=" << row.packets << " bytes=" << row.bytes
               << " stalls=" << row.stalls << " stall="
               << std::setprecision(6) << row.stallUs
               << "us queue mean=" << std::setprecision(3)
               << row.meanQueueDepth << " peak=" << row.peakBacklog;
            if (row.hotspot)
                os << " [hotspot sustained="
                   << std::setprecision(3) << row.sustainedFraction
                   << "]";
            os << "\n";
        }
        if (lw.elidedLinks > 0) {
            os << "  (" << lw.elidedLinks
               << " lower-ranked links elided; raise --top-links to "
                  "see them)\n";
        }
        if (!lw.routers.empty()) {
            os << "  top routers (by forwards):";
            for (const RouterLoadRow &rr : lw.routers)
                os << " " << rr.node << ":" << rr.forwards << "("
                   << rr.bytes << "B)";
            os << "\n";
        }
        if (lw.droppedFacts > 0) {
            os << "  warning: " << lw.droppedFacts
               << " link facts dropped (tracker capacity)\n";
        }
    }
}

namespace {

/** Minimal JSON emission helpers (no external dependency). */
void
jsonTemporal(std::ostream &os, const TemporalFit &fit)
{
    os << "{\"source\":" << fit.source << ",\"count\":"
       << fit.stats.count << ",\"mean\":" << fit.stats.mean
       << ",\"cv\":" << fit.stats.cv;
    if (fit.fit.dist) {
        os << ",\"family\":";
        writeJsonString(os, fit.fit.dist->name());
        // Erlang's params() carries only the rate (the stage count k
        // is fixed from moments, never optimized), so k must ride
        // along separately or a model round-trip would lose it.
        if (fit.fit.dist->name() == "erlang") {
            const auto *erl =
                static_cast<const stats::Erlang *>(fit.fit.dist.get());
            os << ",\"stages\":" << erl->stages();
        }
        os << ",\"params\":[";
        auto ps = fit.fit.dist->params();
        for (std::size_t i = 0; i < ps.size(); ++i)
            os << (i ? "," : "") << ps[i];
        os << "],\"r2\":" << fit.fit.gof.r2 << ",\"ks\":"
           << fit.fit.gof.ks;
    }
    os << "}";
}

} // namespace

void
CharacterizationReport::writeJson(std::ostream &os) const
{
    os << "{\"application\":";
    writeJsonString(os, application);
    os << ",\"strategy\":";
    writeJsonString(os, toString(strategy));
    os << ",\"nprocs\":" << nprocs << ",\"verified\":"
       << (verified ? "true" : "false");
    os << ",\"mesh\":{\"width\":" << mesh.width << ",\"height\":"
       << mesh.height << ",\"topology\":";
    writeJsonString(os, mesh.topology == mesh::Topology::Torus ? "torus"
                                                             : "mesh");
    os << ",\"vcs\":" << mesh.virtualChannels << "}";

    os << ",\"temporal\":{\"aggregate\":";
    jsonTemporal(os, temporalAggregate);
    os << ",\"perSource\":[";
    for (std::size_t i = 0; i < temporalPerSource.size(); ++i) {
        if (i)
            os << ",";
        jsonTemporal(os, temporalPerSource[i]);
    }
    os << "]}";

    os << ",\"spatial\":{\"aggregatePattern\":";
    writeJsonString(os, stats::toString(spatialAggregate.pattern));
    os << ",\"structured\":";
    writeJsonString(os, structured.describe());
    os << ",\"perSource\":[";
    for (std::size_t i = 0; i < spatialPerSource.size(); ++i) {
        const auto &sf = spatialPerSource[i];
        if (i)
            os << ",";
        os << "{\"source\":" << sf.source << ",\"pattern\":";
        writeJsonString(os, stats::toString(sf.classification.pattern));
        os << ",\"tvd\":" << sf.classification.modelTvd
           << ",\"pmf\":[";
        for (std::size_t d = 0; d < sf.observed.size(); ++d)
            os << (d ? "," : "") << sf.observed[d];
        os << "]}";
    }
    os << "],\"hopDistancePmf\":[";
    for (std::size_t h = 0; h < hopDistancePmf.size(); ++h)
        os << (h ? "," : "") << hopDistancePmf[h];
    os << "]}";

    os << ",\"volume\":{\"messages\":" << volume.messageCount
       << ",\"totalBytes\":" << volume.totalBytes
       << ",\"meanLength\":" << volume.lengthStats.mean
       << ",\"lengthPmf\":[";
    for (std::size_t i = 0; i < volume.lengthPmf.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"bytes\":" << volume.lengthPmf[i].first
           << ",\"p\":" << volume.lengthPmf[i].second << "}";
    }
    os << "],\"perSourceCounts\":[";
    for (std::size_t i = 0; i < volume.perSourceCounts.size(); ++i)
        os << (i ? "," : "") << volume.perSourceCounts[i];
    os << "]}";

    // Emitted only when phase detection ran: a run analyzed without
    // it renders byte-identically to earlier versions.
    if (!phases.empty()) {
        os << ",\"phases\":[";
        for (std::size_t i = 0; i < phases.size(); ++i) {
            const auto &ph = phases[i];
            if (i)
                os << ",";
            os << "{\"index\":" << ph.index
               << ",\"tBegin\":" << ph.tBegin << ",\"tEnd\":"
               << ph.tEnd << ",\"messages\":" << ph.messageCount
               << ",\"totalBytes\":" << ph.totalBytes
               << ",\"injectionRate\":" << ph.injectionRate
               << ",\"meanBytes\":" << ph.meanBytes
               << ",\"dstEntropy\":" << ph.dstEntropy
               << ",\"temporal\":";
            jsonTemporal(os, ph.temporal);
            os << ",\"spatialPattern\":";
            writeJsonString(os, stats::toString(ph.spatial.pattern));
            os << "}";
        }
        os << "]";
    }

    os << ",\"network\":{\"latencyMean\":" << network.latencyMean
       << ",\"latencyMax\":" << network.latencyMax
       << ",\"contentionMean\":" << network.contentionMean
       << ",\"makespan\":" << network.makespan
       << ",\"avgChannelUtilization\":"
       << network.avgChannelUtilization << ",\"avgHops\":"
       << network.avgHops << "}";

    // Emitted only for `synth` replays: a report produced by
    // `characterize` renders byte-identically to earlier versions.
    if (synthFidelity.enabled) {
        const SynthesisFidelity &sf = synthFidelity;
        os << ",\"synthFidelity\":{\"modelSource\":";
        writeJsonString(os, sf.modelSource);
        os << ",\"modelApplication\":";
        writeJsonString(os, sf.modelApplication);
        os << ",\"modelProcs\":" << sf.modelProcs
           << ",\"scaleTiles\":" << sf.scaleTiles
           << ",\"messageScale\":" << sf.messageScale
           << ",\"seed\":" << sf.seed
           << ",\"syntheticMessages\":" << sf.syntheticMessages
           << ",\"temporalKs\":" << sf.temporalKs
           << ",\"temporalSources\":" << sf.temporalSources
           << ",\"spatialKs\":" << sf.spatialKs
           << ",\"volumeKs\":" << sf.volumeKs
           << ",\"maxKs\":" << sf.maxKs() << "}";
    }

    // Emitted only for `--synthetic` runs; `cchar synth` skips the key
    // when it loads the document as a model.
    if (synthetic.enabled) {
        const SynthesisFidelity &sf = synthetic.fidelity;
        os << ",\"synthetic\":{\"latencyMean\":"
           << synthetic.network.latencyMean << ",\"contentionMean\":"
           << synthetic.network.contentionMean << ",\"latencyError\":"
           << synthetic.latencyError << ",\"temporalKs\":"
           << sf.temporalKs << ",\"spatialKs\":" << sf.spatialKs
           << ",\"volumeKs\":" << sf.volumeKs << "}";
    }

    // Emitted only for faulted runs: a fault-free report renders
    // byte-identically to earlier versions.
    if (resilience.enabled) {
        os << ",\"resilience\":{\"plan\":";
        writeJsonString(os, resilience.planDescription);
        os << ",\"faultsPlanned\":" << resilience.faultsPlanned
           << ",\"linkDrops\":" << resilience.linkDrops
           << ",\"droppedPackets\":" << resilience.droppedPackets
           << ",\"corruptedPackets\":" << resilience.corruptedPackets
           << ",\"routerStalls\":" << resilience.routerStalls
           << ",\"retransmits\":" << resilience.retransmits
           << ",\"deliveryFailures\":" << resilience.deliveryFailures
           << ",\"traceRecordsSkipped\":"
           << resilience.traceRecordsSkipped
           << ",\"plannedLinkDowntimeUs\":"
           << resilience.plannedLinkDowntimeUs
           << ",\"reroutedPackets\":" << resilience.reroutedPackets
           << ",\"rerouteExtraHops\":"
           << resilience.rerouteExtraHops;
        if (!resilience.rankRetransmits.empty()) {
            os << ",\"rankRetransmits\":[";
            for (std::size_t r = 0;
                 r < resilience.rankRetransmits.size(); ++r)
                os << (r ? "," : "")
                   << resilience.rankRetransmits[r];
            os << "],\"rankCorruptDiscards\":[";
            for (std::size_t r = 0;
                 r < resilience.rankCorruptDiscards.size(); ++r)
                os << (r ? "," : "")
                   << resilience.rankCorruptDiscards[r];
            os << "]";
        }
        os << "}";
    }

    // Emitted only for --rank-activity runs: a report without the
    // flag renders byte-identically to earlier versions.
    if (rankActivity.enabled) {
        const RankActivitySummary &ra = rankActivity;
        os << ",\"rankActivity\":{\"runEndUs\":" << ra.runEndUs
           << ",\"markerSamples\":" << ra.markerSamples
           << ",\"maxAbsSkewUs\":" << ra.maxAbsSkewUs
           << ",\"droppedRecords\":" << ra.droppedRecords
           << ",\"windowUs\":" << ra.windowUs << ",\"ranks\":[";
        for (std::size_t i = 0; i < ra.ranks.size(); ++i) {
            const RankActivityRow &row = ra.ranks[i];
            if (i)
                os << ",";
            os << "{\"rank\":" << row.rank << ",\"computeUs\":"
               << row.computeUs << ",\"blockedSendUs\":"
               << row.blockedSendUs << ",\"blockedRecvUs\":"
               << row.blockedRecvUs << ",\"commUs\":" << row.commUs
               << ",\"idleFraction\":" << row.idleFraction
               << ",\"meanSkewUs\":" << row.meanSkewUs
               << ",\"maxAbsSkewUs\":" << row.maxAbsSkewUs
               << ",\"blockedIntervals\":" << row.blockedIntervals
               << ",\"markers\":" << row.markers << ",\"idleWindows\":[";
            if (i < ra.idleWindows.size()) {
                const auto &wins = ra.idleWindows[i];
                for (std::size_t w = 0; w < wins.size(); ++w)
                    os << (w ? "," : "") << wins[w];
            }
            os << "],\"timeline\":[";
            if (i < ra.timeline.size()) {
                const auto &tl = ra.timeline[i];
                for (std::size_t t = 0; t < tl.size(); ++t) {
                    if (t)
                        os << ",";
                    os << "{\"state\":";
                    writeJsonString(os, obs::rankStateName(tl[t].state));
                    os << ",\"beginUs\":" << tl[t].beginUs
                       << ",\"endUs\":" << tl[t].endUs << "}";
                }
            }
            os << "]}";
        }
        os << "],\"waves\":[";
        for (std::size_t i = 0; i < ra.waves.size(); ++i) {
            const IdleWave &w = ra.waves[i];
            if (i)
                os << ",";
            os << "{\"tBeginUs\":" << w.tBeginUs << ",\"tEndUs\":"
               << w.tEndUs << ",\"rankBegin\":" << w.rankBegin
               << ",\"rankEnd\":" << w.rankEnd << ",\"extent\":"
               << w.extent << ",\"direction\":" << w.direction
               << ",\"speedRanksPerUs\":" << w.speedRanksPerUs
               << ",\"phase\":" << w.phase << "}";
        }
        os << "],\"timelineDropped\":" << ra.timelineDropped << "}";
    }

    // Emitted only for --link-stats runs: a report without the flag
    // renders byte-identically to earlier versions.
    if (linkStats.enabled) {
        const LinkWeatherSummary &lw = linkStats;
        os << ",\"linkStats\":{\"runEndUs\":" << lw.runEndUs
           << ",\"windowUs\":" << lw.windowUs
           << ",\"totalLinks\":" << lw.totalLinks
           << ",\"injectionLinks\":" << lw.injectionLinks
           << ",\"elidedLinks\":" << lw.elidedLinks
           << ",\"avgUtilization\":" << lw.avgUtilization
           << ",\"maxUtilization\":" << lw.maxUtilization
           << ",\"medianUtilization\":" << lw.medianUtilization
           << ",\"gini\":" << lw.gini
           << ",\"hotspotCount\":" << lw.hotspotCount
           << ",\"holStalls\":" << lw.holStalls
           << ",\"holStallUs\":" << lw.holStallUs
           << ",\"offeredBytes\":" << lw.offeredBytes
           << ",\"deliveredBytes\":" << lw.deliveredBytes
           << ",\"congestionOnsetLoad\":" << lw.congestionOnsetLoad
           << ",\"congestionOnsetUs\":" << lw.congestionOnsetUs
           << ",\"congestionPhase\":" << lw.congestionPhase
           << ",\"droppedFacts\":" << lw.droppedFacts << ",\"links\":[";
        for (std::size_t i = 0; i < lw.links.size(); ++i) {
            const LinkWeatherRow &row = lw.links[i];
            if (i)
                os << ",";
            os << "{\"node\":" << row.node << ",\"toNode\":"
               << row.toNode << ",\"dir\":";
            writeJsonString(os, obs::linkDirName(row.dir));
            os << ",\"vc\":" << row.vc << ",\"utilization\":"
               << row.utilization << ",\"packets\":" << row.packets
               << ",\"bytes\":" << row.bytes << ",\"stalls\":"
               << row.stalls << ",\"stallUs\":" << row.stallUs
               << ",\"meanQueueDepth\":" << row.meanQueueDepth
               << ",\"peakBacklog\":" << row.peakBacklog
               << ",\"hotspot\":" << (row.hotspot ? "true" : "false")
               << ",\"sustainedFraction\":" << row.sustainedFraction
               << ",\"sparkline\":[";
            for (std::size_t w = 0; w < row.sparkline.size(); ++w)
                os << (w ? "," : "") << row.sparkline[w];
            os << "]}";
        }
        os << "],\"routers\":[";
        for (std::size_t i = 0; i < lw.routers.size(); ++i) {
            const RouterLoadRow &rr = lw.routers[i];
            if (i)
                os << ",";
            os << "{\"node\":" << rr.node << ",\"forwards\":"
               << rr.forwards << ",\"bytes\":" << rr.bytes << "}";
        }
        os << "],\"offeredSeries\":[";
        for (std::size_t w = 0; w < lw.offeredSeries.size(); ++w)
            os << (w ? "," : "") << lw.offeredSeries[w];
        os << "],\"deliveredSeries\":[";
        for (std::size_t w = 0; w < lw.deliveredSeries.size(); ++w)
            os << (w ? "," : "") << lw.deliveredSeries[w];
        os << "]}";
    }
    os << "}\n";
}

std::string
CharacterizationReport::summaryRow() const
{
    std::ostringstream os;
    os << std::left << std::setw(10) << application << std::right
       << std::setw(9) << volume.messageCount << std::setw(11)
       << std::fixed << std::setprecision(2) << volume.lengthStats.mean
       << std::setw(12) << temporalAggregate.stats.mean << std::setw(8)
       << std::setprecision(2) << temporalAggregate.stats.cv
       << "  " << std::left << std::setw(24)
       << (temporalAggregate.fit.dist
               ? temporalAggregate.fit.dist->name()
               : std::string{"-"})
       << std::left << std::setw(18)
       << stats::toString(spatialAggregate.pattern);
    return os.str();
}

} // namespace cchar::core
