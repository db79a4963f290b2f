#include "record.hh"

#include <algorithm>

namespace cchar::trace {

std::string
toString(MessageKind kind)
{
    switch (kind) {
      case MessageKind::Data:
        return "data";
      case MessageKind::Control:
        return "control";
      case MessageKind::Sync:
        return "sync";
    }
    return "?";
}

std::vector<double>
TrafficLog::interArrivalTimes(int src) const
{
    std::vector<double> injections;
    injections.reserve(records_.size());
    for (const auto &r : records_) {
        if (src < 0 || r.src == src)
            injections.push_back(r.injectTime);
    }
    std::sort(injections.begin(), injections.end());
    std::vector<double> gaps;
    if (injections.size() < 2)
        return gaps;
    gaps.reserve(injections.size() - 1);
    for (std::size_t i = 1; i < injections.size(); ++i)
        gaps.push_back(injections[i] - injections[i - 1]);
    return gaps;
}

std::vector<double>
TrafficLog::destinationCounts(int src) const
{
    std::vector<double> counts(static_cast<std::size_t>(nprocs_), 0.0);
    for (const auto &r : records_) {
        if (r.src == src && r.dst >= 0 && r.dst < nprocs_)
            counts[static_cast<std::size_t>(r.dst)] += 1.0;
    }
    return counts;
}

std::vector<double>
TrafficLog::destinationBytes(int src) const
{
    std::vector<double> bytes(static_cast<std::size_t>(nprocs_), 0.0);
    for (const auto &r : records_) {
        if (r.src == src && r.dst >= 0 && r.dst < nprocs_)
            bytes[static_cast<std::size_t>(r.dst)] += r.bytes;
    }
    return bytes;
}

std::vector<double>
TrafficLog::sourceCounts() const
{
    std::vector<double> counts(static_cast<std::size_t>(nprocs_), 0.0);
    for (const auto &r : records_) {
        if (r.src >= 0 && r.src < nprocs_)
            counts[static_cast<std::size_t>(r.src)] += 1.0;
    }
    return counts;
}

std::vector<double>
TrafficLog::messageLengths() const
{
    std::vector<double> lens;
    lens.reserve(records_.size());
    for (const auto &r : records_)
        lens.push_back(r.bytes);
    return lens;
}

std::vector<double>
TrafficLog::latencies() const
{
    std::vector<double> ls;
    ls.reserve(records_.size());
    for (const auto &r : records_)
        ls.push_back(r.latency());
    return ls;
}

double
TrafficLog::lastDeliverTime() const
{
    double t = 0.0;
    for (const auto &r : records_)
        t = std::max(t, r.deliverTime);
    return t;
}

TrafficLog
TrafficLog::filterKind(MessageKind kind) const
{
    TrafficLog out{nprocs_};
    for (const auto &r : records_) {
        if (r.kind == kind)
            out.add(r);
    }
    return out;
}

} // namespace cchar::trace
