#include "registry.hh"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "json.hh"

namespace cchar::obs {

int
HistogramData::bucketOf(double v)
{
    if (!(v > 0.0))
        return 0;
    int e;
    (void)std::frexp(v, &e);
    // v in [2^(e-1), 2^e): bucket index 1 holds [2^kMinExp, 2^(kMinExp+1)).
    int idx = e - kMinExp;
    if (idx < 1)
        return 0;
    if (idx > kBuckets - 1)
        return kBuckets - 1;
    return idx;
}

double
HistogramData::upperBound(int i)
{
    if (i <= 0)
        return std::ldexp(1.0, kMinExp);
    if (i >= kBuckets - 1)
        return std::numeric_limits<double>::infinity();
    return std::ldexp(1.0, kMinExp + i);
}

MetricsRegistry::MetricsRegistry(std::size_t maxCounters,
                                 std::size_t maxGauges,
                                 std::size_t maxHistograms)
{
    // reserve() fixes the slots' addresses: growth past capacity would
    // invalidate every handle, so it is a hard error instead.
    counterSlots_.reserve(maxCounters);
    gaugeSlots_.reserve(maxGauges);
    histogramSlots_.reserve(maxHistograms);
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    auto it = counterIndex_.find(name);
    if (it == counterIndex_.end()) {
        if (counterSlots_.size() == counterSlots_.capacity())
            throw std::length_error("obs: counter capacity exhausted");
        counterSlots_.push_back(0);
        it = counterIndex_.emplace(name, counterSlots_.size() - 1).first;
    }
    return Counter{&counterSlots_[it->second]};
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    auto it = gaugeIndex_.find(name);
    if (it == gaugeIndex_.end()) {
        if (gaugeSlots_.size() == gaugeSlots_.capacity())
            throw std::length_error("obs: gauge capacity exhausted");
        gaugeSlots_.push_back(0.0);
        it = gaugeIndex_.emplace(name, gaugeSlots_.size() - 1).first;
    }
    return Gauge{&gaugeSlots_[it->second]};
}

Histogram
MetricsRegistry::histogram(const std::string &name)
{
    auto it = histogramIndex_.find(name);
    if (it == histogramIndex_.end()) {
        if (histogramSlots_.size() == histogramSlots_.capacity())
            throw std::length_error("obs: histogram capacity exhausted");
        histogramSlots_.emplace_back();
        it = histogramIndex_.emplace(name, histogramSlots_.size() - 1)
                 .first;
    }
    return Histogram{&histogramSlots_[it->second]};
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    auto it = counterIndex_.find(name);
    return it == counterIndex_.end() ? 0 : counterSlots_[it->second];
}

double
MetricsRegistry::gaugeValue(const std::string &name) const
{
    auto it = gaugeIndex_.find(name);
    return it == gaugeIndex_.end() ? 0.0 : gaugeSlots_[it->second];
}

const HistogramData *
MetricsRegistry::histogramData(const std::string &name) const
{
    auto it = histogramIndex_.find(name);
    return it == histogramIndex_.end() ? nullptr
                                       : &histogramSlots_[it->second];
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counterIndex_.size());
    for (const auto &[name, idx] : counterIndex_)
        out.emplace_back(name, counterSlots_[idx]);
    return out;
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::gauges() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gaugeIndex_.size());
    for (const auto &[name, idx] : gaugeIndex_)
        out.emplace_back(name, gaugeSlots_[idx]);
    return out;
}

std::vector<std::pair<std::string, const HistogramData *>>
MetricsRegistry::histograms() const
{
    std::vector<std::pair<std::string, const HistogramData *>> out;
    out.reserve(histogramIndex_.size());
    for (const auto &[name, idx] : histogramIndex_)
        out.emplace_back(name, &histogramSlots_[idx]);
    return out;
}

void
MetricsRegistry::restoreHistogram(const std::string &name,
                                  const HistogramData &data)
{
    Histogram handle = histogram(name);
    *handle.data_ = data;
}

void
MetricsRegistry::reset()
{
    for (auto &slot : counterSlots_)
        slot = 0;
    for (auto &slot : gaugeSlots_)
        slot = 0.0;
    for (auto &slot : histogramSlots_)
        slot = HistogramData{};
}

namespace {

/** Finite numbers verbatim; infinities become null (strict JSON). */
void
jsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

} // namespace

void
MetricsRegistry::mergeFrom(const MetricsRegistry &other)
{
    for (const auto &[name, idx] : other.counterIndex_) {
        if (std::uint64_t v = other.counterSlots_[idx])
            counter(name).add(v);
    }
    for (const auto &[name, idx] : other.gaugeIndex_)
        gauge(name).high(other.gaugeSlots_[idx]);
    for (const auto &[name, idx] : other.histogramIndex_) {
        const HistogramData &src = other.histogramSlots_[idx];
        if (!src.count)
            continue;
        Histogram handle = histogram(name);
        HistogramData &dst = *handle.data_;
        for (int b = 0; b < HistogramData::kBuckets; ++b) {
            dst.buckets[static_cast<std::size_t>(b)] +=
                src.buckets[static_cast<std::size_t>(b)];
        }
        dst.count += src.count;
        dst.sum += src.sum;
        if (src.min < dst.min)
            dst.min = src.min;
        if (src.max > dst.max)
            dst.max = src.max;
    }
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, idx] : counterIndex_) {
        if (!first)
            os << ",";
        first = false;
        writeJsonString(os, name);
        os << ":" << counterSlots_[idx];
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, idx] : gaugeIndex_) {
        if (!first)
            os << ",";
        first = false;
        writeJsonString(os, name);
        os << ":";
        jsonNumber(os, gaugeSlots_[idx]);
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, idx] : histogramIndex_) {
        const HistogramData &h = histogramSlots_[idx];
        if (!first)
            os << ",";
        first = false;
        writeJsonString(os, name);
        os << ":{\"count\":" << h.count << ",\"sum\":";
        jsonNumber(os, h.sum);
        os << ",\"min\":";
        jsonNumber(os, h.count ? h.min : 0.0);
        os << ",\"max\":";
        jsonNumber(os, h.count ? h.max : 0.0);
        os << ",\"mean\":";
        jsonNumber(os, h.mean());
        os << ",\"buckets\":[";
        bool firstBucket = true;
        for (int b = 0; b < HistogramData::kBuckets; ++b) {
            if (!h.buckets[static_cast<std::size_t>(b)])
                continue;
            if (!firstBucket)
                os << ",";
            firstBucket = false;
            os << "[";
            jsonNumber(os, HistogramData::upperBound(b));
            os << "," << h.buckets[static_cast<std::size_t>(b)] << "]";
        }
        os << "]}";
    }
    os << "}}";
}

} // namespace cchar::obs
