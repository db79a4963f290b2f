#include "synthetic.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "desim/desim.hh"
#include "jsonscan.hh"
#include "obs/obs.hh"

namespace cchar::core {

SyntheticModel
SyntheticModel::fromReport(const CharacterizationReport &report)
{
    SyntheticModel model;
    model.mesh = report.mesh;
    model.nprocs = report.nprocs;
    model.application = report.application;
    model.lengthPmf = report.volume.lengthPmf;

    // Index per-source temporal fits.
    std::vector<const TemporalFit *> bySource(
        static_cast<std::size_t>(report.nprocs), nullptr);
    for (const auto &fit : report.temporalPerSource) {
        if (fit.source >= 0 && fit.source < report.nprocs)
            bySource[static_cast<std::size_t>(fit.source)] = &fit;
    }

    const auto &counts = report.volume.perSourceCounts;
    for (const auto &spatial : report.spatialPerSource) {
        int src = spatial.source;
        // A source the per-source tables cannot index has no model.
        if (src < 0 || src >= report.nprocs ||
            static_cast<std::size_t>(src) >= counts.size())
            continue;
        auto count = static_cast<std::size_t>(
            counts[static_cast<std::size_t>(src)]);
        if (count == 0)
            continue;
        SourceModel sm;
        sm.source = src;
        sm.messageCount = count;
        const TemporalFit *tf = bySource[static_cast<std::size_t>(src)];
        const stats::FitResult &fit =
            (tf && tf->fit.dist) ? tf->fit : report.temporalAggregate.fit;
        if (!fit.dist)
            continue; // no usable temporal model for this source
        sm.interArrival = fit.dist->clone();
        sm.destination = spatial.classification.model;
        model.sources.push_back(std::move(sm));
    }

    // gapScale: the run's mean injection rate over the phase's own
    // rate. A degenerate rate (zero, negative, non-finite) leaves the
    // phase neutral at 1.0.
    double total = 0.0;
    for (const auto &ph : report.phases)
        total += static_cast<double>(ph.messageCount);
    double span = report.phases.empty() ? 0.0
                                        : report.phases.back().tEnd -
                                              report.phases.front().tBegin;
    double globalRate = span > 0.0 ? total / span : 0.0;
    for (const auto &ph : report.phases) {
        PhaseModel pm;
        pm.index = ph.index;
        pm.tBegin = ph.tBegin;
        pm.tEnd = ph.tEnd;
        pm.messageCount = ph.messageCount;
        pm.injectionRate = ph.injectionRate;
        if (globalRate > 0.0 && ph.injectionRate > 0.0 &&
            std::isfinite(ph.injectionRate)) {
            double scale = globalRate / ph.injectionRate;
            if (std::isfinite(scale) && scale > 0.0)
                pm.gapScale = scale;
        }
        model.phases.push_back(pm);
    }
    return model;
}

// ---------------------------------------------------------------
// Characterization-JSON model loader.

namespace {

/** Guard against hostile "[[[[..." documents blowing the stack. */
constexpr int kMaxJsonDepth = 64;

/** Per-source message-count ceiling (keeps arithmetic sane). */
constexpr double kMaxSourceMessages = 1e15;

void
skipValue(JsonScanner &s, int depth)
{
    if (depth > kMaxJsonDepth)
        s.fail("JSON nested too deeply");
    char c = s.peek();
    if (c == '{') {
        s.readObject([&](const std::string &) { skipValue(s, depth + 1); });
    } else if (c == '[') {
        s.readArray([&] { skipValue(s, depth + 1); });
    } else if (c == '"') {
        s.readString();
    } else if (c == 't' || c == 'f') {
        s.readBool();
    } else {
        s.readNumber();
    }
}

double
readFinite(JsonScanner &s, const char *field)
{
    double v = s.readNumber();
    if (!std::isfinite(v))
        s.fail(std::string{field} + " must be finite");
    return v;
}

int
readIntField(JsonScanner &s, const char *field)
{
    double v = readFinite(s, field);
    if (v != std::floor(v) || v < -2147483648.0 || v > 2147483647.0)
        s.fail(std::string{field} + " must be an integer");
    return static_cast<int>(v);
}

/**
 * Parse one temporal-fit object. A fit that names a family carries its
 * distribution; a family (empty included) and parameters that make no
 * valid model fail, naming the fit (`temporal.aggregate` or
 * `temporal.perSource[<src>]`).
 */
TemporalFit
parseTemporalFit(JsonScanner &s, bool perSource)
{
    TemporalFit t;
    std::string family;
    bool hasFit = false;
    int stages = 0;
    std::vector<double> params;
    s.readObject([&](const std::string &key) {
        if (key == "source") {
            t.source = readIntField(s, "temporal source");
        } else if (key == "family") {
            family = s.readString();
            hasFit = true;
        } else if (key == "stages") {
            stages = readIntField(s, "temporal stages");
        } else if (key == "params") {
            s.readArray([&] {
                params.push_back(readFinite(s, "temporal param"));
            });
        } else {
            skipValue(s, 0);
        }
    });
    if (!hasFit)
        return t;
    std::string where =
        perSource ? "temporal.perSource[" + std::to_string(t.source) + "]"
                  : "temporal.aggregate";
    t.fit.dist = stats::distributionFromName(family, params, stages);
    if (!t.fit.dist) {
        std::ostringstream msg;
        msg << where << ": family '" << family << "' with "
            << params.size() << " params";
        if (family == "erlang")
            msg << " and stages=" << stages;
        msg << " is not a valid model";
        s.fail(msg.str());
    }
    return t;
}

} // namespace

SyntheticModel
SyntheticModel::fromJson(const std::string &text)
{
    JsonScanner s{text, "synth model"};

    // The parts of a report that fromReport builds a model from.
    CharacterizationReport report;
    bool sawMesh = false, sawTemporal = false, sawSpatial = false;
    bool sawVolume = false, sawCounts = false;
    std::string topology = "mesh";
    int vcs = 1;

    s.readObject([&](const std::string &key) {
        if (key == "application") {
            report.application = s.readString();
        } else if (key == "nprocs") {
            report.nprocs = readIntField(s, "nprocs");
        } else if (key == "mesh") {
            sawMesh = true;
            s.readObject([&](const std::string &mk) {
                if (mk == "width")
                    report.mesh.width = readIntField(s, "mesh.width");
                else if (mk == "height")
                    report.mesh.height = readIntField(s, "mesh.height");
                else if (mk == "topology")
                    topology = s.readString();
                else if (mk == "vcs")
                    vcs = readIntField(s, "mesh.vcs");
                else
                    skipValue(s, 0);
            });
        } else if (key == "temporal") {
            sawTemporal = true;
            s.readObject([&](const std::string &tk) {
                if (tk == "aggregate") {
                    report.temporalAggregate = parseTemporalFit(s, false);
                } else if (tk == "perSource") {
                    s.readArray([&] {
                        report.temporalPerSource.push_back(
                            parseTemporalFit(s, true));
                    });
                } else {
                    skipValue(s, 0);
                }
            });
        } else if (key == "spatial") {
            sawSpatial = true;
            s.readObject([&](const std::string &sk) {
                if (sk == "perSource") {
                    s.readArray([&] {
                        SpatialFit sf;
                        sf.source = -1; // absent = out of range
                        std::vector<double> pmf;
                        s.readObject([&](const std::string &pk) {
                            if (pk == "source") {
                                sf.source = readIntField(
                                    s, "spatial.perSource source");
                            } else if (pk == "pmf") {
                                s.readArray([&] {
                                    double p = readFinite(
                                        s, "spatial.perSource pmf entry");
                                    if (p < 0.0)
                                        s.fail("spatial.perSource pmf "
                                               "entry must be >= 0");
                                    pmf.push_back(p);
                                });
                            } else {
                                skipValue(s, 0);
                            }
                        });
                        // The JSON carries only the observed PMF; it
                        // stands in for the classified model that
                        // fromReport replays.
                        sf.classification.model =
                            stats::DiscretePmf{std::move(pmf)};
                        report.spatialPerSource.push_back(std::move(sf));
                    });
                } else {
                    skipValue(s, 0);
                }
            });
        } else if (key == "volume") {
            sawVolume = true;
            s.readObject([&](const std::string &vk) {
                if (vk == "lengthPmf") {
                    s.readArray([&] {
                        int bytes = 0;
                        double p = 0.0;
                        s.readObject([&](const std::string &lk) {
                            if (lk == "bytes")
                                bytes = readIntField(
                                    s, "volume.lengthPmf bytes");
                            else if (lk == "p")
                                p = readFinite(s, "volume.lengthPmf p");
                            else
                                skipValue(s, 0);
                        });
                        if (bytes < 0)
                            s.fail("volume.lengthPmf bytes must be "
                                   ">= 0");
                        if (p < 0.0)
                            s.fail("volume.lengthPmf p must be >= 0");
                        report.volume.lengthPmf.emplace_back(bytes, p);
                    });
                } else if (vk == "perSourceCounts") {
                    sawCounts = true;
                    s.readArray([&] {
                        double c = readFinite(
                            s, "volume.perSourceCounts entry");
                        if (c < 0.0 || c > kMaxSourceMessages)
                            s.fail("volume.perSourceCounts entry out "
                                   "of range");
                        report.volume.perSourceCounts.push_back(c);
                    });
                } else {
                    skipValue(s, 0);
                }
            });
        } else if (key == "phases") {
            s.readArray([&] {
                PhaseCharacterization ph;
                s.readObject([&](const std::string &pk) {
                    if (pk == "index") {
                        ph.index = readIntField(s, "phase index");
                    } else if (pk == "tBegin") {
                        ph.tBegin = readFinite(s, "phase tBegin");
                    } else if (pk == "tEnd") {
                        ph.tEnd = readFinite(s, "phase tEnd");
                    } else if (pk == "messages") {
                        double m = readFinite(s, "phase messages");
                        if (m < 0.0 || m > kMaxSourceMessages)
                            s.fail("phase messages out of range");
                        ph.messageCount = static_cast<std::size_t>(m);
                    } else if (pk == "injectionRate") {
                        ph.injectionRate =
                            readFinite(s, "phase injectionRate");
                    } else {
                        skipValue(s, 0);
                    }
                });
                if (ph.tEnd < ph.tBegin)
                    s.fail("phase tEnd must be >= tBegin");
                report.phases.push_back(std::move(ph));
            });
        } else {
            skipValue(s, 0);
        }
    });
    if (!s.atEnd())
        s.fail("trailing content after JSON document");

    // Structural validation with named fields.
    if (report.nprocs < 1)
        s.fail("nprocs must be >= 1");
    if (!sawMesh)
        s.fail("mesh object is missing");
    if (report.mesh.width < 1 || report.mesh.height < 1)
        s.fail("mesh.width and mesh.height must be >= 1");
    // 64-bit product: MeshConfig::nodes() would overflow int on a
    // hostile board before the bound could reject it.
    if (std::int64_t{report.mesh.width} * report.mesh.height >
        mesh::kMaxNodes)
        s.fail("mesh describes more than 2^20 nodes");
    if (report.nprocs > report.mesh.nodes())
        s.fail("nprocs exceeds the mesh node count");
    if (topology == "torus")
        report.mesh.topology = mesh::Topology::Torus;
    else if (topology == "mesh")
        report.mesh.topology = mesh::Topology::Mesh;
    else
        s.fail("mesh.topology must be \"mesh\" or \"torus\"");
    if (vcs < 1 || vcs > 16)
        s.fail("mesh.vcs out of range [1, 16]");
    report.mesh.virtualChannels =
        report.mesh.topology == mesh::Topology::Torus
            ? std::max(vcs, 2)
            : vcs;
    if (!sawTemporal)
        s.fail("temporal object is missing");
    if (!sawSpatial)
        s.fail("spatial object is missing");
    if (!sawVolume)
        s.fail("volume object is missing");
    if (!sawCounts)
        s.fail("volume.perSourceCounts is missing (regenerate the "
               "report with a build that emits it)");

    // Cross-field validation: sources in range, and a destination with
    // mass for every source that has traffic.
    for (const auto &t : report.temporalPerSource)
        if (t.source < 0 || t.source >= report.nprocs)
            s.fail("temporal.perSource source out of range");
    const auto &counts = report.volume.perSourceCounts;
    for (const auto &sf : report.spatialPerSource) {
        if (sf.source < 0 || sf.source >= report.nprocs)
            s.fail("spatial.perSource source out of range");
        auto src = static_cast<std::size_t>(sf.source);
        if (src >= counts.size() || counts[src] < 1.0)
            continue;
        double mass = 0.0;
        for (double p : sf.classification.model.probabilities())
            mass += p;
        if (mass <= 0.0)
            s.fail("spatial.perSource pmf of source " +
                   std::to_string(sf.source) + " has no mass");
    }

    SyntheticModel model = fromReport(report);
    if (model.sources.empty())
        s.fail("no source has both traffic and a usable temporal fit");
    return model;
}

SyntheticModel
SyntheticModel::fromJsonFile(const std::string &path)
{
    std::ifstream in{path, std::ios::binary};
    if (!in)
        throw CCharError(StatusCode::IoError,
                         "synth model: cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJson(buf.str());
}

std::size_t
SyntheticModel::totalMessages() const
{
    std::size_t total = 0;
    for (const auto &sm : sources)
        total += sm.messageCount;
    return total;
}

SyntheticModel
SyntheticModel::scaleTo(int target_procs,
                        std::size_t target_messages) const
{
    int nodes = mesh.nodes();
    int tiles = 1;
    if (target_procs > 0) {
        if (target_procs % nodes != 0 || target_procs > mesh::kMaxNodes)
            throw CCharError(
                StatusCode::UsageError,
                "synth: --scale-procs must be a positive multiple of "
                "the model's " +
                    std::to_string(nodes) + " nodes, at most " +
                    std::to_string(mesh::kMaxNodes));
        tiles = target_procs / nodes;
    }
    // Near-square tile grid: the largest ty <= sqrt(tiles) dividing it.
    int ty = 1;
    for (int d = 1; d * d <= tiles; ++d)
        if (tiles % d == 0)
            ty = d;
    int tx = tiles / ty;

    SyntheticModel out;
    out.mesh = mesh;
    out.mesh.width = mesh.width * tx;
    out.mesh.height = mesh.height * ty;
    out.nprocs = target_procs > 0 ? target_procs : nprocs;
    out.application = application;
    out.phases = phases;
    out.lengthPmf = lengthPmf;

    double total = static_cast<double>(totalMessages());
    double scale = 1.0;
    if (target_messages > 0 && total > 0.0)
        scale = static_cast<double>(target_messages) /
                (total * static_cast<double>(tiles));

    const int w = mesh.width, h = mesh.height;
    const int wScaled = out.mesh.width;
    out.sources.reserve(sources.size() *
                        static_cast<std::size_t>(tiles));
    for (int tj = 0; tj < ty; ++tj) {
        for (int ti = 0; ti < tx; ++ti) {
            for (const auto &sm : sources) {
                int x = sm.source % w, y = sm.source / w;
                SourceModel c;
                c.source = (y + h * tj) * wScaled + (x + w * ti);
                c.interArrival = sm.interArrival->clone();
                c.messageCount = static_cast<std::size_t>(std::llround(
                    static_cast<double>(sm.messageCount) * scale));
                // Remap the destination PMF into this clone's own
                // tile: relative geometry (and thus hop distances on
                // the mesh) is preserved exactly.
                std::vector<double> weights(
                    static_cast<std::size_t>(out.mesh.nodes()), 0.0);
                const auto &p = sm.destination.probabilities();
                for (std::size_t d = 0;
                     d < p.size() &&
                     d < static_cast<std::size_t>(nodes);
                     ++d) {
                    if (p[d] <= 0.0)
                        continue;
                    int dx = static_cast<int>(d) % w;
                    int dy = static_cast<int>(d) / w;
                    weights[static_cast<std::size_t>(
                        (dy + h * tj) * wScaled + (dx + w * ti))] =
                        p[d];
                }
                c.destination = stats::DiscretePmf{std::move(weights)};
                out.sources.push_back(std::move(c));
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Generation.

DriveResult
SyntheticTrafficGenerator::run(const SyntheticModel &model,
                               const SynthRunOptions &opts,
                               const desim::WatchdogConfig &watchdog)
{
    if (model.nprocs > model.mesh.nodes())
        throw std::invalid_argument("synthetic: model does not fit on "
                                    "the mesh");
    const std::vector<SyntheticModel::PhaseModel> *phases =
        opts.usePhases && !model.phases.empty() ? &model.phases : nullptr;
    const stats::DiscreteSampler length =
        stats::DiscreteSampler::fromLengthPmf(model.lengthPmf, 8);
    std::vector<TrafficSource> sources;
    sources.reserve(model.sources.size());
    for (const SyntheticModel::SourceModel &sm : model.sources) {
        // Fitted models keep a structural zero at the source; a
        // numerically degenerate draw falls back to the most likely
        // other destination.
        const int argmax = sm.destination.argmax();
        const int fallback = argmax == sm.source
                                 ? (sm.source + 1) % model.mesh.nodes()
                                 : argmax;
        // The destination CDF is cached once per source: at replay
        // scale (millions of messages) the per-draw linear scan of
        // DiscretePmf would dominate the run.
        auto sampler =
            [&sm, &length, phases, fallback, timeScale = opts.timeScale,
             destination = stats::DiscreteSampler::fromPmf(sm.destination),
             rng = stats::Rng{opts.seed +
                              static_cast<std::uint64_t>(sm.source) * 7919},
             left = sm.messageCount](desim::SimTime now,
                                     SourceMessage &msg) mutable {
                if (left == 0)
                    return false;
                --left;
                double gap = sm.interArrival->sample(rng) * timeScale;
                if (phases) {
                    // The phase containing `now` scales the gap.
                    auto ph = std::upper_bound(
                        phases->begin(), phases->end(), now,
                        [](double t, const SyntheticModel::PhaseModel &p) {
                            return t < p.tBegin;
                        });
                    gap *= (ph == phases->begin() ? ph : ph - 1)->gapScale;
                }
                const int dst = destination.sample(rng);
                // A degenerate model (loaded rate underflow) may draw a
                // non-finite gap; clamping keeps the run terminating
                // without touching any finite-gap byte stream.
                msg = {std::isfinite(gap) ? gap : 0.0,
                       {sm.source, dst == sm.source ? fallback : dst,
                        length.sample(rng)}};
                return true;
            };
        sources.push_back({"synth-src-" + std::to_string(sm.source),
                           std::move(sampler)});
    }
    DriveOptions drive;
    drive.pacing = opts.maxOutstanding > 0 ? Pacing::Window : Pacing::Open;
    drive.window = opts.maxOutstanding;
    drive.watchdog = watchdog;
    return driveMesh(model.mesh, std::move(sources), drive);
}

// ---------------------------------------------------------------
// Fidelity: model vs re-observed synthetic traffic.

SynthesisFidelity
computeSynthFidelity(const SyntheticModel &model,
                     const trace::TrafficLog &log)
{
    SynthesisFidelity sf;
    sf.enabled = true;
    sf.modelApplication = model.application;
    sf.modelProcs = model.nprocs;
    sf.syntheticMessages = log.size();

    // Temporal: per-source KS of the observed inter-arrival sample
    // against the distribution that generated it (open-loop injection
    // makes the per-source gaps exactly the drawn sample), weighted by
    // sample size.
    double weightSum = 0.0, ksSum = 0.0;
    std::size_t included = 0;
    for (const auto &sm : model.sources) {
        std::vector<double> iat = log.interArrivalTimes(sm.source);
        if (iat.size() < 8)
            continue;
        stats::GoodnessOfFit gof =
            stats::DistributionFitter::evaluate(*sm.interArrival, iat);
        double w = static_cast<double>(iat.size());
        ksSum += gof.ks * w;
        weightSum += w;
        ++included;
    }
    sf.temporalSources = included;
    sf.temporalKs = weightSum > 0.0 ? ksSum / weightSum : 1.0;

    // Spatial: sup CDF distance (destination-index order) between the
    // count-weighted mixture of the per-source destination PMFs and
    // the observed aggregate destination distribution.
    std::size_t n = static_cast<std::size_t>(model.mesh.nodes());
    std::vector<double> expect(n, 0.0), observed(n, 0.0);
    double expectSum = 0.0, observedSum = 0.0;
    for (const auto &sm : model.sources) {
        const auto &p = sm.destination.probabilities();
        double count = static_cast<double>(sm.messageCount);
        for (std::size_t d = 0; d < p.size() && d < n; ++d)
            expect[d] += p[d] * count;
        expectSum += count;
    }
    for (const auto &rec : log.records()) {
        if (rec.dst >= 0 && static_cast<std::size_t>(rec.dst) < n) {
            observed[static_cast<std::size_t>(rec.dst)] += 1.0;
            observedSum += 1.0;
        }
    }
    if (expectSum > 0.0 && observedSum > 0.0) {
        double ce = 0.0, co = 0.0, sup = 0.0;
        for (std::size_t d = 0; d < n; ++d) {
            ce += expect[d] / expectSum;
            co += observed[d] / observedSum;
            sup = std::max(sup, std::fabs(ce - co));
        }
        sf.spatialKs = sup;
    }

    // Volume: sup CDF distance over the union of byte-size supports
    // between the model length PMF and the observed lengths.
    std::map<int, double> modelMass, observedMass;
    double modelSum = 0.0, lenSum = 0.0;
    for (const auto &[bytes, p] : model.lengthPmf) {
        if (p > 0.0) {
            modelMass[bytes] += p;
            modelSum += p;
        }
    }
    for (const auto &rec : log.records()) {
        observedMass[rec.bytes] += 1.0;
        lenSum += 1.0;
    }
    if (modelSum > 0.0 && lenSum > 0.0) {
        double cm = 0.0, co = 0.0, sup = 0.0;
        auto im = modelMass.begin();
        auto io = observedMass.begin();
        while (im != modelMass.end() || io != observedMass.end()) {
            int b;
            if (im == modelMass.end())
                b = io->first;
            else if (io == observedMass.end())
                b = im->first;
            else
                b = std::min(im->first, io->first);
            if (im != modelMass.end() && im->first == b) {
                cm += im->second / modelSum;
                ++im;
            }
            if (io != observedMass.end() && io->first == b) {
                co += io->second / lenSum;
                ++io;
            }
            sup = std::max(sup, std::fabs(cm - co));
        }
        sf.volumeKs = sup;
    }
    return sf;
}

ModelValidation
validateReportModel(const CharacterizationReport &report,
                    const SynthRunOptions &opts,
                    const desim::WatchdogConfig &watchdog)
{
    obs::ScopedObservability detach{nullptr, nullptr, nullptr, nullptr,
                                    nullptr};
    SyntheticModel model = SyntheticModel::fromReport(report);
    DriveResult synth = SyntheticTrafficGenerator::run(model, opts, watchdog);
    ModelValidation v;
    v.enabled = true;
    v.network = synth.summary();
    const double original = report.network.latencyMean;
    if (original != 0.0)
        v.latencyError = (synth.latencyMean - original) / original;
    v.fidelity = computeSynthFidelity(model, synth.log);
    return v;
}

} // namespace cchar::core
