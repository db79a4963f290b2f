/**
 * @file
 * Wall-clock self-report for bench binaries (satellite of the
 * observability layer). Kept separate from common.hh so benches that
 * only link desim/mesh/stats can use it without pulling in the apps.
 */

#ifndef CCHAR_BENCH_SELF_REPORT_HH
#define CCHAR_BENCH_SELF_REPORT_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"

namespace cchar::bench {

/**
 * Installs a process-wide metrics registry for its lifetime so every
 * observed simulation the bench runs is counted; on destruction prints
 * the wall time and the event and message counts to stderr and drops
 * a machine-readable BENCH_<name>.json record in the working
 * directory. No rate is derived from them: the wall time also covers
 * work the counters do not observe (analysis, replays run with the
 * sinks detached). A bench that measures throughput times its own
 * loop and attaches the rate with extra().
 */
class SelfReport
{
  public:
    explicit SelfReport(std::string name)
        : name_(std::move(name)), scope_(&registry_),
          start_(std::chrono::steady_clock::now())
    {}

    SelfReport(const SelfReport &) = delete;
    SelfReport &operator=(const SelfReport &) = delete;

    /**
     * Attach a bench-specific numeric field to the JSON record
     * (appended in insertion order after the standard fields).
     */
    void
    extra(std::string key, double value)
    {
        extras_.emplace_back(std::move(key), Value{value, false, false});
    }

    /** Attach a bench-specific boolean field to the JSON record. */
    void
    extraFlag(std::string key, bool value)
    {
        extras_.emplace_back(std::move(key), Value{0.0, value, true});
    }

    ~SelfReport()
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        std::uint64_t events = registry_.counterValue("desim.events");
        std::uint64_t msgs = registry_.counterValue("mesh.messages");
        std::cerr << "[bench] " << name_ << ": " << wall << "s wall, "
                  << events << " events, " << msgs << " mesh messages\n";
        std::ofstream f{"BENCH_" + name_ + ".json"};
        f << "{\"bench\":\"" << name_ << "\",\"wall_s\":" << wall
          << ",\"events\":" << events << ",\"messages\":" << msgs;
        for (const auto &[key, v] : extras_) {
            f << ",\"" << key << "\":";
            if (v.isBool)
                f << (v.flag ? "true" : "false");
            else
                f << v.num;
        }
        f << "}\n";
    }

  private:
    struct Value
    {
        double num;
        bool flag;
        bool isBool;
    };

    std::vector<std::pair<std::string, Value>> extras_;
    std::string name_;
    obs::MetricsRegistry registry_;
    obs::ScopedObservability scope_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace cchar::bench

#endif // CCHAR_BENCH_SELF_REPORT_HH
