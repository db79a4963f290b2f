#include "tracer.hh"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "json.hh"

namespace cchar::obs {

Tracer::Tracer(std::size_t capacity)
{
    if (capacity == 0)
        throw std::invalid_argument("obs: tracer capacity must be > 0");
    ring_.resize(capacity);
}

int
Tracer::lane(const std::string &name)
{
    auto it = laneIds_.find(name);
    if (it != laneIds_.end())
        return it->second;
    int id = static_cast<int>(laneNames_.size());
    laneNames_.push_back(name);
    laneIds_.emplace(name, id);
    return id;
}

int
Tracer::name(const std::string &eventName)
{
    auto it = eventIds_.find(eventName);
    if (it != eventIds_.end())
        return it->second;
    int id = static_cast<int>(eventNames_.size());
    eventNames_.push_back(eventName);
    eventIds_.emplace(eventName, id);
    return id;
}

void
Tracer::push(const Record &rec)
{
    if (wrapped_)
        ++dropped_;
    ring_[next_] = rec;
    next_ = (next_ + 1) % ring_.size();
    if (next_ == 0 && !wrapped_)
        wrapped_ = true;
}

void
Tracer::span(int laneId, int nameId, double ts, double dur)
{
    push(Record{ts, dur < 0.0 ? 0.0 : dur, 0, laneId, nameId, 0, 0,
                RecordKind::Span, false});
}

void
Tracer::span(int laneId, int nameId, double ts, double dur,
             std::int32_t d0, std::int32_t d1)
{
    push(Record{ts, dur < 0.0 ? 0.0 : dur, 0, laneId, nameId, d0, d1,
                RecordKind::Span, true});
}

void
Tracer::instant(int laneId, int nameId, double ts)
{
    push(Record{ts, 0.0, 0, laneId, nameId, 0, 0, RecordKind::Instant,
                false});
}

void
Tracer::pushFlow(RecordKind kind, int laneId, int nameId, double ts,
                 std::uint64_t flowId)
{
    push(Record{ts, 0.0, flowId, laneId, nameId, 0, 0, kind, false});
}

void
Tracer::flowStart(int laneId, int nameId, double ts, std::uint64_t flowId)
{
    pushFlow(RecordKind::FlowStart, laneId, nameId, ts, flowId);
}

void
Tracer::flowStep(int laneId, int nameId, double ts, std::uint64_t flowId)
{
    pushFlow(RecordKind::FlowStep, laneId, nameId, ts, flowId);
}

void
Tracer::flowEnd(int laneId, int nameId, double ts, std::uint64_t flowId)
{
    pushFlow(RecordKind::FlowEnd, laneId, nameId, ts, flowId);
}

std::size_t
Tracer::size() const
{
    return wrapped_ ? ring_.size() : next_;
}

template <typename Fn>
void
Tracer::forEach(Fn &&fn) const
{
    if (wrapped_) {
        for (std::size_t i = next_; i < ring_.size(); ++i)
            fn(ring_[i]);
    }
    for (std::size_t i = 0; i < next_; ++i)
        fn(ring_[i]);
}

std::size_t
Tracer::laneRecordCount(int laneId) const
{
    std::size_t n = 0;
    forEach([&](const Record &rec) {
        if (rec.lane == laneId)
            ++n;
    });
    return n;
}

void
Tracer::clear()
{
    next_ = 0;
    wrapped_ = false;
    dropped_ = 0;
}

namespace {

void
jsonTime(std::ostream &os, double v)
{
    // Timestamps are nonnegative finite sim times by construction, but
    // guard anyway: strict JSON has no inf/nan literals.
    os << (std::isfinite(v) ? v : 0.0);
}

} // namespace

void
Tracer::writeChromeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    // One named thread track per lane; pid 1 groups them all.
    for (std::size_t laneId = 0; laneId < laneNames_.size(); ++laneId) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":"
           << laneId << ",\"args\":{\"name\":";
        writeJsonString(os, laneNames_[laneId]);
        os << "}},{\"name\":\"thread_sort_index\",\"ph\":\"M\","
              "\"pid\":1,\"tid\":"
           << laneId << ",\"args\":{\"sort_index\":" << laneId << "}}";
    }
    forEach([&](const Record &rec) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":";
        writeJsonString(os, eventNames_[static_cast<std::size_t>(rec.name)]);
        switch (rec.kind) {
          case RecordKind::Instant:
            os << ",\"ph\":\"i\",\"s\":\"t\"";
            break;
          case RecordKind::FlowStart:
            os << ",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << rec.flow;
            break;
          case RecordKind::FlowStep:
            os << ",\"cat\":\"flow\",\"ph\":\"t\",\"id\":" << rec.flow;
            break;
          case RecordKind::FlowEnd:
            os << ",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
               << rec.flow;
            break;
          case RecordKind::Span:
            os << ",\"ph\":\"X\",\"dur\":";
            jsonTime(os, rec.dur);
            break;
        }
        os << ",\"ts\":";
        jsonTime(os, rec.ts);
        os << ",\"pid\":1,\"tid\":" << rec.lane;
        if (rec.hasArgs)
            os << ",\"args\":{\"d0\":" << rec.d0 << ",\"d1\":" << rec.d1
               << "}";
        os << "}";
    });
    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
       << dropped_ << "}}\n";
}

} // namespace cchar::obs
