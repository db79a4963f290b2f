#include "journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "core/jsonscan.hh"
#include "core/status.hh"
#include "obs/json.hh"

namespace cchar::sweep {

using core::CCharError;
using core::StatusCode;

namespace {

using obs::writeJsonString;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fnvBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void
fnvString(std::uint64_t &h, const std::string &s)
{
    fnvBytes(h, s.data(), s.size());
    // Terminator so ("ab","c") and ("a","bc") cannot collide.
    unsigned char sep = 0x1f;
    fnvBytes(h, &sep, 1);
}

void
fnvU64(std::uint64_t &h, std::uint64_t v)
{
    fnvBytes(h, &v, sizeof v);
}

/** Doubles hash (and serialize) by exact bit pattern. */
void
fnvDouble(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fnvU64(h, bits);
}

std::string
hexHash(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Exact double serialization: hexadecimal float, quoted. */
void
hexDouble(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    os << '"' << buf << '"';
}

[[noreturn]] void
parseFail(const std::string &what)
{
    throw CCharError(StatusCode::ParseError, "sweep journal: " + what);
}

std::uint64_t
parseHexHash(const std::string &text)
{
    if (text.size() < 3 || text.compare(0, 2, "0x") != 0)
        parseFail("bad hash '" + text + "'");
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str() + 2, &end, 16);
    if (end != text.c_str() + text.size())
        parseFail("bad hash '" + text + "'");
    return static_cast<std::uint64_t>(v);
}

double
parseHexDouble(core::JsonScanner &js)
{
    std::string text = js.readString();
    if (text.empty())
        js.fail("empty number string");
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        js.fail("bad number string '" + text + "'");
    return v;
}

/**
 * The columns a record carries, in its key order: the job's index (the
 * rest of the job is rebound from the spec on resume), the
 * orchestration columns, then the rest of the outcome.
 */
constexpr std::span<const Field<SweepJob>> kRecordJob =
    std::span{kJobFields}.first(1);
constexpr std::span<const Field<JobOutcome>> kRecordOutcome{kOutcomeFields};

/** One column value in a record: exact hexfloat doubles. */
template <class T>
void
writeValue(std::ostream &os, const T &v)
{
    if constexpr (std::is_same_v<T, double>)
        hexDouble(os, v);
    else if constexpr (std::is_same_v<T, std::string>)
        writeJsonString(os, v);
    else if constexpr (std::is_same_v<T, bool>)
        os << (v ? "true" : "false");
    else
        os << v;
}

/** Inverse of writeValue. */
template <class T>
void
readValue(core::JsonScanner &js, T &v)
{
    if constexpr (std::is_same_v<T, double>)
        v = parseHexDouble(js);
    else if constexpr (std::is_same_v<T, std::string>)
        v = js.readString();
    else if constexpr (std::is_same_v<T, bool>)
        v = js.readBool();
    else
        v = static_cast<T>(js.readUInt());
}

/**
 * If one of `fields` is named `key`, read its value into `rec` and
 * tick its `seen` flag; a repeated key is a ParseError.
 */
template <class Record>
bool
readColumn(core::JsonScanner &js, const std::string &key,
           std::span<const Field<Record>> fields, Record &rec,
           std::vector<bool> &seen)
{
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (key != fields[i].name)
            continue;
        if (seen[i])
            js.fail("duplicate record key '" + key + "'");
        seen[i] = true;
        std::visit([&](auto member) { readValue(js, rec.*member); },
                   fields[i].member);
        return true;
    }
    return false;
}

/** A record lacking any of `fields` is a ParseError. */
template <class Record>
void
requireColumns(core::JsonScanner &js, std::span<const Field<Record>> fields,
               const std::vector<bool> &seen)
{
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (!seen[i])
            js.fail(std::string{"record lacks key '"} + fields[i].name +
                    "'");
    }
}

/** {"name":value,...} over (name, value) pairs; put writes a value. */
template <class Pairs, class Put>
void
writeMembers(std::ostream &os, const Pairs &pairs, Put &&put)
{
    os << "{";
    const char *sep = "";
    for (const auto &[name, value] : pairs) {
        os << sep;
        sep = ",";
        writeJsonString(os, name);
        os << ":";
        put(value);
    }
    os << "}";
}

JournalRecord
captureRecord(const JobOutcome &outcome,
              const obs::MetricsRegistry &registry)
{
    JournalRecord record;
    record.hash = jobHash(outcome.job);
    record.outcome = outcome;
    record.counters = registry.counters();
    record.gauges = registry.gauges();
    for (const auto &[name, data] : registry.histograms())
        record.histograms.emplace_back(name, *data);
    return record;
}

obs::HistogramData
parseHistogram(core::JsonScanner &js)
{
    obs::HistogramData data;
    js.readObject([&](const std::string &key) {
        if (key == "count") {
            data.count = js.readUInt();
        } else if (key == "sum") {
            data.sum = parseHexDouble(js);
        } else if (key == "min") {
            data.min = parseHexDouble(js);
        } else if (key == "max") {
            data.max = parseHexDouble(js);
        } else if (key == "buckets") {
            js.readArray([&] {
                js.expect('[');
                std::uint64_t b = js.readUInt();
                if (b >= static_cast<std::uint64_t>(
                             obs::HistogramData::kBuckets))
                    js.fail("bucket index out of range");
                js.expect(',');
                data.buckets[static_cast<std::size_t>(b)] = js.readUInt();
                js.expect(']');
            });
        } else {
            js.fail("unknown histogram key '" + key + "'");
        }
    });
    return data;
}

/** Parse the {...} body shared by live and reparsed records. */
JournalRecord
parseRecordBody(core::JsonScanner &js)
{
    JournalRecord record;
    JobOutcome &o = record.outcome;
    bool sawType = false;
    std::vector<bool> seenJob(kRecordJob.size());
    std::vector<bool> seenOutcome(kRecordOutcome.size());
    js.readObject([&](const std::string &key) {
        if (key == "type") {
            if (js.readString() != "job")
                js.fail("record type is not 'job'");
            sawType = true;
        } else if (key == "hash") {
            record.hash = parseHexHash(js.readString());
        } else if (key == "counters") {
            js.readObject([&](const std::string &name) {
                record.counters.emplace_back(name, js.readUInt());
            });
        } else if (key == "gauges") {
            js.readObject([&](const std::string &name) {
                record.gauges.emplace_back(name, parseHexDouble(js));
            });
        } else if (key == "histograms") {
            js.readObject([&](const std::string &name) {
                record.histograms.emplace_back(name, parseHistogram(js));
            });
        } else if (!readColumn(js, key, kRecordJob, o.job, seenJob) &&
                   !readColumn(js, key, kRecordOutcome, o, seenOutcome)) {
            js.fail("unknown record key '" + key + "'");
        }
    });
    if (!js.atEnd())
        js.fail("trailing characters after record");
    if (!sawType)
        js.fail("record without type");
    requireColumns(js, kRecordJob, seenJob);
    requireColumns(js, kRecordOutcome, seenOutcome);
    return record;
}

} // namespace

std::uint64_t
jobHash(const SweepJob &job)
{
    std::uint64_t h = kFnvOffset;
    fnvU64(h, job.index);
    fnvString(h, job.app);
    fnvU64(h, static_cast<std::uint64_t>(job.procs));
    fnvU64(h, static_cast<std::uint64_t>(job.width));
    fnvU64(h, static_cast<std::uint64_t>(job.height));
    fnvU64(h, job.torus ? 1 : 0);
    fnvU64(h, static_cast<std::uint64_t>(job.vcs));
    fnvDouble(h, job.load);
    fnvU64(h, job.seed);
    fnvString(h, job.faultPlan);
    fnvU64(h, job.rankActivity ? 1 : 0);
    fnvU64(h, job.linkStats ? 1 : 0);
    fnvU64(h, job.synthetic ? 1 : 0);
    return h;
}

std::uint64_t
specHash(const std::vector<SweepJob> &jobs)
{
    std::uint64_t h = kFnvOffset;
    fnvU64(h, jobs.size());
    for (const SweepJob &job : jobs)
        fnvU64(h, jobHash(job));
    return h;
}

std::string
formatJournalHeader(std::uint64_t specHashValue, std::size_t jobs)
{
    std::ostringstream os;
    os << "{\"type\":\"cchar-sweep-journal\",\"v\":1,\"jobs\":" << jobs
       << ",\"spec_hash\":\"" << hexHash(specHashValue) << "\"}\n";
    return os.str();
}

std::string
formatJournalRecord(const JournalRecord &record)
{
    const JobOutcome &o = record.outcome;
    std::ostringstream os;
    os << "{\"type\":\"job\",\"hash\":\"" << hexHash(record.hash)
       << "\"";
    auto column = [&](const auto &field, const auto &value) {
        os << ",";
        writeJsonString(os, field.name);
        os << ":";
        writeValue(os, value);
    };
    const std::size_t split = kRecordOutcome.size() - kOrchestrationFields;
    forEachField(kRecordJob, o.job, column);
    forEachField(kRecordOutcome.subspan(split), o, column);
    forEachField(kRecordOutcome.first(split), o, column);
    os << ",\"counters\":";
    writeMembers(os, record.counters, [&](std::uint64_t v) { os << v; });
    os << ",\"gauges\":";
    writeMembers(os, record.gauges, [&](double v) { hexDouble(os, v); });
    os << ",\"histograms\":";
    writeMembers(os, record.histograms, [&](const obs::HistogramData &h) {
        os << "{\"count\":" << h.count << ",\"sum\":";
        hexDouble(os, h.sum);
        os << ",\"min\":";
        hexDouble(os, h.min);
        os << ",\"max\":";
        hexDouble(os, h.max);
        os << ",\"buckets\":[";
        const char *sep = "";
        for (int b = 0; b < obs::HistogramData::kBuckets; ++b) {
            std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
            if (n) {
                os << sep << "[" << b << "," << n << "]";
                sep = ",";
            }
        }
        os << "]}";
    });
    os << "}\n";
    return os.str();
}

std::string
formatJournalRecord(const JobOutcome &outcome,
                    const obs::MetricsRegistry &registry)
{
    return formatJournalRecord(captureRecord(outcome, registry));
}

JournalContents
parseJournal(const std::string &text)
{
    JournalContents out;

    // Newline-delimited segments; a file not ending in '\n' has a
    // torn final segment by construction.
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    if (lines.empty())
        parseFail("empty journal");

    {
        core::JsonScanner js{lines[0], "sweep journal"};
        bool sawType = false, sawVersion = false;
        js.readObject([&](const std::string &key) {
            if (key == "type") {
                if (js.readString() != "cchar-sweep-journal")
                    js.fail("not a sweep journal");
                sawType = true;
            } else if (key == "v") {
                if (js.readUInt() != 1)
                    js.fail("unsupported journal version");
                sawVersion = true;
            } else if (key == "jobs") {
                out.jobs = static_cast<std::size_t>(js.readUInt());
            } else if (key == "spec_hash") {
                out.specHash = parseHexHash(js.readString());
            } else {
                js.fail("unknown header key '" + key + "'");
            }
        });
        if (!js.atEnd())
            js.fail("trailing characters after header");
        if (!sawType || !sawVersion)
            js.fail("incomplete journal header");
    }

    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].empty())
            continue;
        try {
            core::JsonScanner js{lines[i], "sweep journal"};
            out.records.push_back(parseRecordBody(js));
        } catch (const CCharError &) {
            if (i + 1 == lines.size()) {
                // A single interrupted append can tear exactly one
                // line: the last one. Drop it — the job reruns.
                out.truncatedTail = true;
                core::reportDiagnostic(
                    core::DiagSeverity::Warning,
                    "sweep journal: dropped torn final record (the "
                    "interrupted job will rerun)");
                break;
            }
            throw;
        }
    }
    return out;
}

JournalContents
loadJournalFile(const std::string &path)
{
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        throw CCharError(StatusCode::IoError,
                         "sweep: cannot read journal '" + path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseJournal(buf.str());
}

void
restoreRegistry(const JournalRecord &record,
                obs::MetricsRegistry &registry)
{
    for (const auto &[name, value] : record.counters)
        registry.counter(name).add(value);
    for (const auto &[name, value] : record.gauges)
        registry.gauge(name).set(value);
    for (const auto &[name, data] : record.histograms)
        registry.restoreHistogram(name, data);
}

JournalWriter::JournalWriter(const std::string &path,
                             std::uint64_t specHashValue,
                             std::size_t jobs, bool append)
    : path_(path)
{
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (!append)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) {
        throw CCharError(StatusCode::IoError,
                         "sweep: cannot open journal '" + path +
                             "': " + std::strerror(errno));
    }
    if (!append)
        writeDurably(formatJournalHeader(specHashValue, jobs));
}

JournalWriter::~JournalWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JournalWriter::append(const JobOutcome &outcome,
                      const obs::MetricsRegistry &registry)
{
    std::string line = formatJournalRecord(outcome, registry);
    std::lock_guard<std::mutex> lock{mutex_};
    writeDurably(line);
}

void
JournalWriter::append(const JournalRecord &record)
{
    std::string line = formatJournalRecord(record);
    std::lock_guard<std::mutex> lock{mutex_};
    writeDurably(line);
}

void
JournalWriter::writeDurably(const std::string &line)
{
    const char *p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        ssize_t n = ::write(fd_, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw CCharError(StatusCode::IoError,
                             "sweep: journal write failed on '" +
                                 path_ + "': " + std::strerror(errno));
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    // The record only counts as journaled once it is on disk: a
    // resume must never trust a record the crash could have eaten.
    (void)::fsync(fd_);
}

} // namespace cchar::sweep
