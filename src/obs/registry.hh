/**
 * @file
 * Low-overhead metrics registry: Counter / Gauge / Histogram handles
 * backed by contiguous storage.
 *
 * Design goals, in order:
 *
 *  1. Zero cost when disabled. A handle is a single pointer into the
 *     registry's storage; a default-constructed (detached) handle is a
 *     null pointer and every operation on it is one predictable branch.
 *     Instrumented code resolves its handles once (at construction)
 *     and the hot path never does a name lookup.
 *
 *  2. Determinism. The registry performs no I/O and no time queries;
 *     exporting is explicit (writeJson) and iterates names in sorted
 *     order, so two identical runs export identical documents.
 *
 *  3. Stability. Slots live in vectors whose capacity is fixed at
 *     construction, so handles stay valid for the registry's lifetime
 *     and the storage is genuinely contiguous.
 *
 * Metric names are interned: asking for the same name twice returns a
 * handle onto the same slot, which is how independent components (e.g.
 * every NodeController) share one logical counter.
 */

#ifndef CCHAR_OBS_REGISTRY_HH
#define CCHAR_OBS_REGISTRY_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cchar::obs {

class MetricsRegistry;

/** Monotonically increasing event count. */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t n = 1)
    {
        if (slot_)
            *slot_ += n;
    }

    /** Current value (0 when detached). */
    std::uint64_t value() const { return slot_ ? *slot_ : 0; }

    /** True when attached to a registry slot. */
    explicit operator bool() const { return slot_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Counter(std::uint64_t *slot) : slot_(slot) {}

    std::uint64_t *slot_ = nullptr;
};

/** Last-written (or running-max) level of a signal. */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(double v)
    {
        if (slot_)
            *slot_ = v;
    }

    /** Keep the maximum of the values seen. */
    void
    high(double v)
    {
        if (slot_ && v > *slot_)
            *slot_ = v;
    }

    double value() const { return slot_ ? *slot_ : 0.0; }
    explicit operator bool() const { return slot_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(double *slot) : slot_(slot) {}

    double *slot_ = nullptr;
};

/**
 * Fixed-layout histogram payload: base-2 exponential buckets covering
 * [2^-16, 2^30) plus an underflow/zero bucket and an overflow bucket,
 * with exact count/sum/min/max on the side.
 */
struct HistogramData
{
    /** bucket 0: v <= 0 or v < 2^-16; bucket 47: v >= 2^30. */
    static constexpr int kBuckets = 48;
    static constexpr int kMinExp = -16;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    /** Bucket index of a value. */
    static int bucketOf(double v);

    /** Exclusive upper bound of bucket i (inf for the overflow bucket). */
    static double upperBound(int i);

    void
    record(double v)
    {
        ++buckets[static_cast<std::size_t>(bucketOf(v))];
        ++count;
        sum += v;
        if (v < min)
            min = v;
        if (v > max)
            max = v;
    }

    double
    mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
};

/** Distribution of an observed quantity (latencies, queue waits...). */
class Histogram
{
  public:
    Histogram() = default;

    void
    record(double v)
    {
        if (data_)
            data_->record(v);
    }

    std::uint64_t count() const { return data_ ? data_->count : 0; }
    double mean() const { return data_ ? data_->mean() : 0.0; }
    explicit operator bool() const { return data_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Histogram(HistogramData *data) : data_(data) {}

    HistogramData *data_ = nullptr;
};

/**
 * Owner of all metric storage. Handles returned by counter()/gauge()/
 * histogram() stay valid for the registry's lifetime.
 */
class MetricsRegistry
{
  public:
    /** Capacities fix the contiguous storage; exceeding one throws. */
    explicit MetricsRegistry(std::size_t maxCounters = 256,
                             std::size_t maxGauges = 128,
                             std::size_t maxHistograms = 64);

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Handle onto the named counter (interned; created on demand). */
    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    Histogram histogram(const std::string &name);

    /** Value lookups by name (0 / null when the metric is absent). */
    std::uint64_t counterValue(const std::string &name) const;
    double gaugeValue(const std::string &name) const;
    const HistogramData *histogramData(const std::string &name) const;

    /**
     * Full-content snapshots in sorted-name order (the same order
     * writeJson emits). The sweep journal uses these to serialize a
     * completed job's registry so a resumed run can rebuild it
     * exactly; pointers in histograms() stay valid for the
     * registry's lifetime.
     */
    std::vector<std::pair<std::string, std::uint64_t>> counters() const;
    std::vector<std::pair<std::string, double>> gauges() const;
    std::vector<std::pair<std::string, const HistogramData *>>
    histograms() const;

    /**
     * Intern the named histogram and overwrite its payload verbatim
     * (buckets, count, sum, min, max). Restore-side complement of
     * histograms(); counters and gauges restore through
     * counter().add() / gauge().set().
     */
    void restoreHistogram(const std::string &name,
                          const HistogramData &data);

    /** Zero every value; handles stay attached. */
    void reset();

    /**
     * Fold another registry into this one: counters add, gauges keep
     * the maximum, histograms merge bucket-wise (count/sum add,
     * min/max widen). Metrics absent here are interned on demand. The
     * sweep engine uses this to aggregate per-worker registries into
     * one fleet-wide snapshot in deterministic (job) order.
     */
    void mergeFrom(const MetricsRegistry &other);

    /**
     * JSON snapshot:
     * {"counters":{...},"gauges":{...},"histograms":{name:
     *  {"count":n,"sum":s,"min":m,"max":M,"mean":mu,
     *   "buckets":[[upperBound,count],...]}}}
     * Names are emitted in sorted order (deterministic).
     */
    void writeJson(std::ostream &os) const;

  private:
    std::vector<std::uint64_t> counterSlots_;
    std::vector<double> gaugeSlots_;
    std::vector<HistogramData> histogramSlots_;
    std::map<std::string, std::size_t> counterIndex_;
    std::map<std::string, std::size_t> gaugeIndex_;
    std::map<std::string, std::size_t> histogramIndex_;
};

} // namespace cchar::obs

#endif // CCHAR_OBS_REGISTRY_HH
